#include "cluster/metadata.h"

#include <charconv>
#include <memory>

#include "cluster/protocol.h"

namespace sedna::cluster {

namespace {

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
    load_vnodes(0, std::move(on_ready));
  });
}

void MetadataCache::load_vnodes(std::uint32_t next, ReadyCallback on_ready) {
  // Bulk load in windows of 64 concurrent reads: the paper's boot-time
  // full scan, bounded so we do not stampede the ensemble.
  constexpr std::uint32_t kWindow = 64;
  if (next >= config_.total_vnodes) {
    // Record the journal high-water mark: everything older is already in
    // the freshly loaded table.
    zk_.children(kZkChanges, [this, on_ready = std::move(on_ready)](
                                 const auto& kids) {
      if (kids.ok()) {
        for (const auto& name : kids.value()) {
          last_seen_change_ = std::max(last_seen_change_, journal_seq(name));
        }
      }
      ready_ = true;
      schedule_sync();
      on_ready(Status::Ok());
    });
    return;
  }
  const std::uint32_t end =
      std::min(next + kWindow, config_.total_vnodes);
  auto remaining = std::make_shared<std::uint32_t>(end - next);
  auto failed = std::make_shared<bool>(false);
  for (std::uint32_t v = next; v < end; ++v) {
    read_vnode(v, [this, end, remaining, failed,
                   on_ready](const Status& st) mutable {
      // A vnode with no znode, or an unreadable one, keeps its default.
      if (!st.ok() && !st.is(StatusCode::kNotFound) &&
          !st.is(StatusCode::kCorruption)) {
        *failed = true;
      }
      if (--*remaining == 0) {
        if (*failed) {
          on_ready(Status::Unavailable("vnode table load failed"));
        } else {
          load_vnodes(end, std::move(on_ready));
        }
      }
    });
  }
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
    if (!kids.ok()) {
      zk_.note_sync_changes(0);
      if (done) done();
      return;
    }
    // Collect entries newer than our high-water mark, in order.
    std::vector<std::uint64_t> fresh;
    for (const auto& name : kids.value()) {
      const std::uint64_t seq = journal_seq(name);
      if (seq > last_seen_change_) fresh.push_back(seq);
    }
    std::sort(fresh.begin(), fresh.end());
    zk_.note_sync_changes(fresh.size());
    if (fresh.empty()) {
      if (done) done();
      return;
    }
    // Fetch the entries (vnode, owner) and apply in sequence order.
    auto remaining = std::make_shared<std::size_t>(fresh.size());
    auto updates = std::make_shared<
        std::map<std::uint64_t, std::pair<VnodeId, NodeId>>>();
    auto finish = [this, remaining, updates,
                   done = std::move(done)]() mutable {
      if (--*remaining != 0) return;
      for (const auto& [seq, change] : *updates) {
        apply_local(change.first, change.second);
        ++refreshed_;
        last_seen_change_ = std::max(last_seen_change_, seq);
      }
      if (done) done();
    };
    for (std::uint64_t seq : fresh) {
      char name[32];
      // `seq` is 1-based; the znode suffix is the raw 0-based counter.
      std::snprintf(name, sizeof name, "%s/c%010llu", kZkChanges,
                    static_cast<unsigned long long>(seq - 1));
      zk_.get(name, [this, seq, updates, finish](const auto& got) mutable {
        if (got.ok()) {
          const auto entry = ChangeJournalEntry::decode(got->first);
          if (entry.ok()) (*updates)[seq] = {entry->vnode, entry->owner};
        } else {
          // Entry vanished or unreadable: remember we passed it so we do
          // not refetch forever.
          last_seen_change_ = std::max(last_seen_change_, seq);
        }
        finish();
      });
    }
  });
}

void MetadataCache::refresh_vnode(VnodeId v, std::function<void()> done) {
  read_vnode(v, [this, done = std::move(done)](const Status& st) {
    if (st.ok()) ++refreshed_;
    if (done) done();
  });
}

}  // namespace sedna::cluster
