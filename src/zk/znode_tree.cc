#include "zk/znode_tree.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/codec.h"

namespace sedna::zk {

ZnodeTree::ZnodeTree() : root_(std::make_unique<Znode>()) {}

bool ZnodeTree::split(std::string_view path, std::string_view& parent,
                      std::string_view& leaf) {
  if (path.size() < 2 || path.front() != '/' || path.back() == '/') {
    return false;
  }
  const auto pos = path.rfind('/');
  parent = pos == 0 ? std::string_view{"/"} : path.substr(0, pos);
  leaf = path.substr(pos + 1);
  return !leaf.empty();
}

ZnodeTree::Znode* ZnodeTree::walk(std::string_view path) {
  return const_cast<Znode*>(
      static_cast<const ZnodeTree*>(this)->walk(path));
}

const ZnodeTree::Znode* ZnodeTree::walk(std::string_view path) const {
  if (path.empty() || path.front() != '/') return nullptr;
  const Znode* node = root_.get();
  std::size_t pos = 1;
  while (pos < path.size()) {
    auto next = path.find('/', pos);
    if (next == std::string_view::npos) next = path.size();
    const std::string_view component = path.substr(pos, next - pos);
    if (component.empty()) return nullptr;
    const auto it = node->children.find(std::string(component));
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
    pos = next + 1;
  }
  return node;
}

Result<std::string> ZnodeTree::create(std::string_view path,
                                      std::string_view data, CreateMode mode,
                                      std::uint64_t session_id,
                                      std::uint64_t zxid) {
  std::string_view parent_path, leaf;
  if (!split(path, parent_path, leaf)) {
    return Status::InvalidArgument("bad znode path");
  }
  Znode* parent = walk(parent_path);
  if (parent == nullptr) return Status::NotFound("parent missing");
  if (parent->stat.ephemeral_owner != 0) {
    return Status::InvalidArgument("ephemeral znodes cannot have children");
  }

  std::string name(leaf);
  if (is_sequential(mode)) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, "%010" PRIu64,
                  parent->next_sequence++);
    name += suffix;
  }
  if (parent->children.contains(name)) {
    return Status::AlreadyExists(std::string(path));
  }

  auto node = std::make_unique<Znode>();
  node->data.assign(data);
  node->stat.czxid = zxid;
  node->stat.mzxid = zxid;
  node->stat.ephemeral_owner = is_ephemeral(mode) ? session_id : 0;
  parent->children.emplace(name, std::move(node));
  parent->stat.num_children = static_cast<std::uint32_t>(
      parent->children.size());

  std::string actual(parent_path == "/" ? "" : std::string(parent_path));
  actual += '/';
  actual += name;
  return actual;
}

Result<std::pair<std::string, ZnodeStat>> ZnodeTree::get(
    std::string_view path) const {
  const Znode* node = walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  return std::make_pair(node->data, node->stat);
}

Result<ZnodeStat> ZnodeTree::set(std::string_view path, std::string_view data,
                                 std::int64_t expected_version,
                                 std::uint64_t zxid) {
  Znode* node = walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (expected_version >= 0 && node->stat.version != expected_version) {
    return Status::Failure("version mismatch");
  }
  node->data.assign(data);
  ++node->stat.version;
  node->stat.mzxid = zxid;
  return node->stat;
}

Status ZnodeTree::remove(std::string_view path,
                         std::int64_t expected_version) {
  std::string_view parent_path, leaf;
  if (!split(path, parent_path, leaf)) {
    return Status::InvalidArgument("bad znode path");
  }
  Znode* parent = walk(parent_path);
  if (parent == nullptr) return Status::NotFound(std::string(path));
  const auto it = parent->children.find(std::string(leaf));
  if (it == parent->children.end()) {
    return Status::NotFound(std::string(path));
  }
  if (expected_version >= 0 &&
      it->second->stat.version != expected_version) {
    return Status::Failure("version mismatch");
  }
  if (!it->second->children.empty()) {
    return Status::InvalidArgument("znode has children");
  }
  parent->children.erase(it);
  parent->stat.num_children =
      static_cast<std::uint32_t>(parent->children.size());
  return Status::Ok();
}

Result<ZnodeStat> ZnodeTree::exists(std::string_view path) const {
  const Znode* node = walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  return node->stat;
}

Result<std::vector<std::string>> ZnodeTree::children(
    std::string_view path) const {
  const Znode* node = walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;  // std::map keeps them sorted
}

std::vector<std::string> ZnodeTree::remove_session_ephemerals(
    std::uint64_t session_id) {
  // Two passes: collect paths (deepest first is unnecessary — ephemerals
  // are leaves by construction), then delete.
  std::vector<std::string> owned;
  for_each([&](const std::string& path, const Znode& node) {
    if (node.stat.ephemeral_owner == session_id) owned.push_back(path);
  });
  std::vector<std::string> removed;
  for (const auto& path : owned) {
    if (remove(path, -1).ok()) removed.push_back(path);
  }
  return removed;
}

void ZnodeTree::for_each(
    const std::function<void(const std::string&, const Znode&)>& fn) const {
  // Iterative DFS over (path, node): a LIFO stack visits every parent
  // before its children.
  std::vector<std::pair<std::string, const Znode*>> stack;
  stack.emplace_back("", root_.get());
  while (!stack.empty()) {
    auto [path, node] = stack.back();
    stack.pop_back();
    fn(path, *node);
    for (const auto& [name, child] : node->children) {
      stack.emplace_back(path + "/" + name, child.get());
    }
  }
}

namespace {

/// One znode of a tree image. `num_children` is not sent: the replica's
/// creates rebuild it, which is why ZnodeStat::wire does not fit here.
struct ImageZnode {
  std::string path;
  std::string data;
  std::uint64_t czxid = 0;
  std::uint64_t mzxid = 0;
  std::int64_t version = 0;
  std::uint64_t ephemeral_owner = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.path, m.data, m.czxid, m.mzxid, m.version, m.ephemeral_owner);
  }
};

/// The full-state image: every znode, parents before children, then the
/// (path, next_sequence) counter of each parent that has issued one.
struct TreeImage {
  std::vector<ImageZnode> znodes;
  std::vector<std::pair<std::string, std::uint64_t>> sequences;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) { io(m.znodes, m.sequences); }
};

}  // namespace

std::string ZnodeTree::serialize() const {
  // Parents sort before children lexicographically? Not in general
  // ("/a-x" < "/a/x" is false since '-' < '/'), so emit in DFS order,
  // which guarantees parent-before-child. Sequence counters must transfer
  // too, or a new leader would reissue sequential names: the image ends
  // with (path, next_sequence) pairs, the root's included.
  TreeImage image;
  for_each([&](const std::string& path, const Znode& node) {
    if (!path.empty()) {
      image.znodes.push_back({path, node.data, node.stat.czxid,
                              node.stat.mzxid, node.stat.version,
                              node.stat.ephemeral_owner});
    }
    if (node.next_sequence != 0) {
      image.sequences.emplace_back(path, node.next_sequence);
    }
  });
  return codec::encode(image);
}

Result<ZnodeTree> ZnodeTree::deserialize(std::string_view bytes) {
  const auto image = codec::decode<TreeImage>(bytes, "bad tree image");
  if (!image.ok()) return image.status();
  ZnodeTree tree;
  for (const ImageZnode& z : image->znodes) {
    const CreateMode mode = z.ephemeral_owner != 0 ? CreateMode::kEphemeral
                                                   : CreateMode::kPersistent;
    if (!tree.create(z.path, z.data, mode, z.ephemeral_owner, z.czxid)
             .ok()) {
      return Status::Corruption("bad tree order");
    }
    // Restore the version history the create reset.
    ZnodeStat& stat = tree.walk(z.path)->stat;
    stat.mzxid = z.mzxid;
    stat.version = z.version;
  }
  for (const auto& [path, seq] : image->sequences) {
    Znode* node = path.empty() ? tree.root_.get() : tree.walk(path);
    if (node != nullptr) node->next_sequence = seq;
  }
  return tree;
}

std::size_t ZnodeTree::node_count() const {
  std::size_t n = 0;
  for_each([&](const std::string&, const Znode&) { ++n; });
  return n - 1;  // the root is not a znode
}

}  // namespace sedna::zk
