#include "wal/wal.h"

#include "common/crc32.h"

namespace sedna::wal {

Result<WalRecord> WalRecord::decode(std::string_view payload) {
  codec::Reader in(payload);
  WalRecord rec;
  in.get(rec);
  if (in.failed() || !in.exhausted()) {
    return Status::Corruption("bad wal record");
  }
  return rec;
}

std::size_t write_frame(std::FILE* f, std::string_view payload) {
  const std::string header = codec::encode(FrameHeader{
      static_cast<std::uint32_t>(payload.size()), crc32(payload)});
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  return ok ? header.size() + payload.size() : 0;
}

bool read_frame(std::FILE* f, std::string& payload) {
  char header[8];
  if (std::fread(header, 1, sizeof header, f) != sizeof header) return false;
  const auto h = codec::decode<FrameHeader>(
      std::string_view(header, sizeof header), "bad frame header");
  // Cap the payload defensively: a corrupt length must not OOM us.
  if (!h.ok() || h->length == 0 || h->length > (64u << 20)) return false;
  payload.resize(h->length);
  if (std::fread(payload.data(), 1, h->length, f) != h->length) {
    return false;  // torn tail
  }
  return crc32(payload) == h->crc;
}

Status WriteAheadLog::open() {
  if (file_ != nullptr) return Status::Ok();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open wal: " + path_);
  }
  return Status::Ok();
}

void WriteAheadLog::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WriteAheadLog::append(const WalRecord& record) {
  if (file_ == nullptr) {
    const Status st = open();
    if (!st.ok()) return st;
  }
  if (write_frame(file_, record.encode()) == 0) {
    return Status::IoError("wal append failed");
  }
  ++appended_;
  return Status::Ok();
}

Status WriteAheadLog::sync() {
  if (file_ == nullptr) return Status::Ok();
  if (std::fflush(file_) != 0) return Status::IoError("wal flush failed");
  return Status::Ok();
}

Result<std::uint64_t> WriteAheadLog::replay(
    const std::string& path,
    const std::function<void(const WalRecord&)>& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::uint64_t{0};  // no log = nothing to recover

  std::uint64_t recovered = 0;
  std::string payload;
  while (read_frame(f, payload)) {
    auto rec = WalRecord::decode(payload);
    if (!rec.ok()) break;
    fn(rec.value());
    ++recovered;
  }
  std::fclose(f);
  return recovered;
}

Status WriteAheadLog::reset() {
  close();
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot truncate wal");
  std::fclose(f);
  appended_ = 0;
  return open();
}

}  // namespace sedna::wal
