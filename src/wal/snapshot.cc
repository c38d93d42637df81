#include "wal/snapshot.h"

#include <cstdio>

#include "common/codec.h"
#include "wal/wal.h"

namespace sedna::wal {

namespace {

/// "SEDNASNP", read as a little-endian u64.
constexpr std::uint64_t kMagic = 0x504e53414e444553ULL;
constexpr std::uint32_t kVersion = 1;

struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.magic, m.version);
  }
};

/// One item's frame payload; the causal record rides in a trailing
/// section, so snapshots of LWW-only stores keep the pre-causal format.
struct ItemFrame {
  std::string key;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Absolute expiry on the store's clock; 0 = never.
  std::uint64_t expires_at = 0;
  store::CausalRecord causal;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.key, m.has_latest);
    if (m.has_latest) io(m.latest);
    io(m.value_list, m.expires_at);
    io.trailing(!m.causal.empty(), [&] { io(m.causal); });
  }
};

}  // namespace

Status Snapshot::write(const std::string& path,
                       const store::LocalStore& store) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create snapshot: " + tmp);

  const std::string header = codec::encode(FileHeader{});
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  if (ok) {
    store.for_each([&](const store::Item& item) {
      if (!ok) return;
      const ItemFrame frame{item.key,        item.has_latest, item.latest,
                            item.value_list, item.expires_at, item.causal};
      ok = write_frame(f, codec::encode(frame)) != 0;
    });
  }
  ok = ok && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot rename failed");
  }
  return Status::Ok();
}

Result<std::uint64_t> Snapshot::load(const std::string& path,
                                     store::LocalStore& store) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::uint64_t{0};  // no snapshot yet

  char buf[12];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  const auto header =
      codec::decode<FileHeader>(std::string_view(buf, n), "bad snapshot");
  if (!header.ok() || header->magic != kMagic) {
    std::fclose(f);
    return Status::Corruption("bad snapshot header");
  }

  const std::uint64_t now = store.clock_now();
  std::uint64_t restored = 0;
  std::string payload;
  while (read_frame(f, payload)) {
    auto frame = codec::decode<ItemFrame>(payload, "bad snapshot item");
    if (!frame.ok()) break;
    const ItemFrame& item = frame.value();
    // An item that expired while saved stays gone; the rest keep their
    // absolute expiry.
    if (item.expires_at != 0 && item.expires_at <= now) continue;
    if (item.has_latest) {
      store.write_latest(item.key, item.latest.value, item.latest.ts,
                         item.latest.flags);
    }
    for (const auto& sv : item.value_list) {
      store.write_all(item.key, sv.source, sv.value, sv.ts);
    }
    if (!item.causal.empty()) store.merge_causal(item.key, item.causal);
    if (item.expires_at != 0) store.touch(item.key, item.expires_at - now);
    ++restored;
  }
  std::fclose(f);
  return restored;
}

}  // namespace sedna::wal
