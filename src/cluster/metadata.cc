#include "cluster/metadata.h"

#include <charconv>
#include <memory>

#include "cluster/protocol.h"
#include "common/gather.h"

namespace sedna::cluster {

namespace {

/// Concurrent znode reads per window of the boot-time vnode table load.
constexpr std::uint32_t kLoadWindow = 64;

/// Parses the numeric suffix of a journal entry name "c0000000042" and
/// returns it 1-based (suffix + 1) so 0 unambiguously means "no entry" —
/// the very first journal entry has suffix 0.
[[nodiscard]] std::uint64_t journal_seq(std::string_view name) {
  if (name.empty() || name.front() != 'c') return 0;
  std::uint64_t seq = 0;
  const auto digits = name.substr(1);
  if (std::from_chars(digits.data(), digits.data() + digits.size(), seq)
          .ec != std::errc{}) {
    return 0;
  }
  return seq + 1;
}

}  // namespace

void MetadataCache::start(ReadyCallback on_ready) {
  sync_timer_.cancel();  // restart-safe: drop any previous sync chain
  ready_ = false;
  zk_.get(kZkConfig, [this, on_ready = std::move(on_ready)](const auto& got) {
    auto cfg = got.ok() ? ClusterConfig::decode(got->first)
                        : Result<ClusterConfig>(got.status());
    if (!cfg.ok()) {
      on_ready(cfg.status());
      return;
    }
    config_ = cfg.value();
    table_ = ring::VnodeTable(config_.total_vnodes, config_.replicas);
    load_vnodes(std::move(on_ready));
  });
}

void MetadataCache::load_vnodes(ReadyCallback on_ready) {
  // Bulk load in windows of kLoadWindow concurrent reads: the paper's
  // boot-time full scan, bounded so we do not stampede the ensemble. A
  // window finishes before the next starts; a failed one skips the rest.
  const std::uint32_t total = config_.total_vnodes;
  auto failed = std::make_shared<bool>(false);
  auto read_window = [this, total, failed](std::size_t w, GatherDone done) {
    const auto first = static_cast<VnodeId>(w * kLoadWindow);
    // A vnode with no znode, or an unreadable one, keeps its default.
    auto read = [this, first, failed](std::size_t i, GatherDone read_done) {
      read_vnode(static_cast<VnodeId>(first + i),
                 [failed, read_done](const Status& st) {
                   *failed |= !st.ok() && !st.is(StatusCode::kNotFound) &&
                              !st.is(StatusCode::kCorruption);
                   read_done();
                 });
    };
    run_bounded(*failed ? 0 : std::min(kLoadWindow, total - first), kNoLimit,
                std::move(read), std::move(done));
  };
  auto finish = [this, failed, on_ready = std::move(on_ready)] {
    if (*failed) {
      on_ready(Status::Unavailable("vnode table load failed"));
      return;
    }
    // Record the journal high-water mark: everything older is already in
    // the freshly loaded table.
    zk_.children(kZkChanges, [this, on_ready](const auto& kids) {
      if (kids.ok()) {
        for (const auto& name : kids.value()) {
          last_seen_change_ = std::max(last_seen_change_, journal_seq(name));
        }
      }
      ready_ = true;
      schedule_sync();
      on_ready(Status::Ok());
    });
  };
  run_bounded((total + kLoadWindow - 1) / kLoadWindow, 1,
              std::move(read_window), std::move(finish));
}

void MetadataCache::read_vnode(VnodeId v,
                               std::function<void(const Status&)> done) {
  zk_.get(vnode_znode(v), [this, v, done = std::move(done)](const auto& got) {
    if (!got.ok()) {
      done(got.status());
      return;
    }
    const auto body = VnodeZnode::decode(got->first);
    if (body.ok()) apply_local(v, body->owner);
    done(body.status());
  });
}

void MetadataCache::schedule_sync() {
  sync_timer_ = host_.sim().schedule(zk_.current_lease(), [this] {
    if (!host_.alive()) return;
    // Periodic lease sync is background work, not part of whatever trace
    // the host last dispatched. (sync_now() calls, by contrast, run under
    // the caller's context so retry-triggered syncs show in the tree.)
    host_.set_trace_context({});
    run_sync([this] { schedule_sync(); });
  });
}

void MetadataCache::sync_now(std::function<void()> done) {
  run_sync(std::move(done));
}

void MetadataCache::run_sync(std::function<void()> done) {
  ++syncs_;
  zk_.children(kZkChanges, [this, done = std::move(done)](
                               const auto& kids) mutable {
    // Collect entries newer than our high-water mark, in order (none when
    // the journal could not be listed).
    std::vector<std::uint64_t> fresh;
    if (kids.ok()) {
      for (const auto& name : kids.value()) {
        const std::uint64_t seq = journal_seq(name);
        if (seq > last_seen_change_) fresh.push_back(seq);
      }
    }
    std::sort(fresh.begin(), fresh.end());
    zk_.note_sync_changes(fresh.size());
    // Fetch the entries (vnode, owner) and apply in sequence order.
    auto updates = std::make_shared<
        std::map<std::uint64_t, std::pair<VnodeId, NodeId>>>();
    auto fetch = [this, updates, &fresh](std::size_t i, GatherDone fetched) {
      const std::uint64_t seq = fresh[i];
      char name[32];
      // `seq` is 1-based; the znode suffix is the raw 0-based counter.
      std::snprintf(name, sizeof name, "%s/c%010llu", kZkChanges,
                    static_cast<unsigned long long>(seq - 1));
      zk_.get(name, [this, seq, updates, fetched](const auto& got) {
        if (got.ok()) {
          const auto entry = ChangeJournalEntry::decode(got->first);
          if (entry.ok()) (*updates)[seq] = {entry->vnode, entry->owner};
        } else {
          // Entry vanished or unreadable: remember we passed it so we do
          // not refetch forever.
          last_seen_change_ = std::max(last_seen_change_, seq);
        }
        fetched();
      });
    };
    run_bounded(fresh.size(), kNoLimit, fetch,
                [this, updates, done = std::move(done)] {
                  for (const auto& [seq, change] : *updates) {
                    apply_local(change.first, change.second);
                    ++refreshed_;
                    last_seen_change_ = std::max(last_seen_change_, seq);
                  }
                  if (done) done();
                });
  });
}

void MetadataCache::refresh_vnode(VnodeId v, std::function<void()> done) {
  read_vnode(v, [this, done = std::move(done)](const Status& st) {
    if (st.ok()) ++refreshed_;
    if (done) done();
  });
}

}  // namespace sedna::cluster
