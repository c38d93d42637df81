// Hierarchical key space: dataset / table / key.
//
// The paper stores flat key-value pairs but "extends the key field of data
// to support hierarchical data space" (Sections II.B.1, IV.C): monitors can
// watch a single pair, a Table (collection of pairs), or a Dataset
// (collection of tables). We encode the hierarchy into the key string as
// "dataset/table/key"; prefix matching gives containment.
#pragma once

#include <string>
#include <string_view>

namespace sedna {

class KeyPath {
 public:
  KeyPath() = default;
  KeyPath(std::string dataset, std::string table, std::string key)
      : dataset_(std::move(dataset)),
        table_(std::move(table)),
        key_(std::move(key)) {}

  /// Parses "dataset/table/key". Missing components stay empty:
  /// "ds/t" addresses a table; "ds" a dataset.
  [[nodiscard]] static KeyPath parse(std::string_view flat) {
    KeyPath p;
    const auto first = flat.find('/');
    if (first == std::string_view::npos) {
      p.dataset_ = std::string(flat);
      return p;
    }
    p.dataset_ = std::string(flat.substr(0, first));
    const auto rest = flat.substr(first + 1);
    const auto second = rest.find('/');
    if (second == std::string_view::npos) {
      p.table_ = std::string(rest);
      return p;
    }
    p.table_ = std::string(rest.substr(0, second));
    p.key_ = std::string(rest.substr(second + 1));
    return p;
  }

  [[nodiscard]] const std::string& dataset() const { return dataset_; }
  [[nodiscard]] const std::string& table() const { return table_; }
  [[nodiscard]] const std::string& key() const { return key_; }

  [[nodiscard]] bool is_dataset() const {
    return !dataset_.empty() && table_.empty();
  }
  [[nodiscard]] bool is_table() const {
    return !table_.empty() && key_.empty();
  }
  [[nodiscard]] bool is_pair() const { return !key_.empty(); }

  /// Flat wire representation, "dataset/table/key".
  [[nodiscard]] std::string flat() const {
    std::string out = dataset_;
    if (!table_.empty()) {
      out += '/';
      out += table_;
      if (!key_.empty()) {
        out += '/';
        out += key_;
      }
    }
    return out;
  }

  /// True when this path (a dataset, table, or pair) contains `other`.
  /// A pair contains only itself; a table contains its pairs; a dataset
  /// contains its tables' pairs.
  [[nodiscard]] bool contains(const KeyPath& other) const {
    if (dataset_ != other.dataset_) return false;
    if (is_dataset()) return true;
    if (table_ != other.table_) return false;
    if (is_table()) return true;
    return key_ == other.key_;
  }

  friend bool operator==(const KeyPath& a, const KeyPath& b) {
    return a.dataset_ == b.dataset_ && a.table_ == b.table_ &&
           a.key_ == b.key_;
  }

 private:
  std::string dataset_;
  std::string table_;
  std::string key_;
};

/// Builds the flat key "dataset/table/key" without constructing a KeyPath.
[[nodiscard]] inline std::string make_key(std::string_view dataset,
                                          std::string_view table,
                                          std::string_view key) {
  std::string out;
  out.reserve(dataset.size() + table.size() + key.size() + 2);
  out.append(dataset);
  out.push_back('/');
  out.append(table);
  out.push_back('/');
  out.append(key);
  return out;
}

}  // namespace sedna
