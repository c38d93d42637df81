// FIFO ring buffer that keeps its capacity.
//
// A growable circular array: push_back doubles the buffer when full, and
// nothing ever shrinks it, so a queue that has reached its working depth
// stops allocating (std::deque frees and reallocates blocks as it cycles).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sedna {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T& front() { return buf_[head_]; }

  /// Removes the head; its slot keeps the moved-from (or reset) value.
  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Drops every element, keeping the capacity.
  void clear() {
    while (!empty()) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  /// Power-of-two sized, so an index wraps with a mask.
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sedna
