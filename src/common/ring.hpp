// Power-of-two ring deque over contiguous storage.
//
// Extracted from sim::CpuQueue::JobRing (which is now an instantiation) so
// the NodeGroup's per-worker inboxes reuse the same structure:
// std::deque allocates a 512-byte node per handful of elements, putting one
// malloc/free on every busy producer/consumer path, while this ring grows
// geometrically and then stays allocation-free. Elements emplace directly
// into their ring cell; pop_front moves the element out.
//
// Not thread-safe by itself — CpuQueue uses it single-threaded, the runtime
// workers guard theirs with the inbox mutex.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace pocc::common {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }

  template <typename U>
  void push_back(U&& element) {
    if (tail_ - head_ == cap_) grow();
    ring_[tail_++ & (cap_ - 1)] = std::forward<U>(element);
  }

  T pop_front() {
    T out = std::move(ring_[head_ & (cap_ - 1)]);
    ++head_;
    return out;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 16 : cap_ * 2;
    // Default-init (new T[cap]), not value-init: value-init would zero every
    // element's storage (a Job's ~200-byte inline buffer, say) on each grow.
    std::unique_ptr<T[]> bigger(new T[cap]);
    const std::size_t n = tail_ - head_;
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (cap_ - 1)]);
    }
    ring_ = std::move(bigger);
    cap_ = cap;
    head_ = 0;
    tail_ = n;
  }

  std::unique_ptr<T[]> ring_;  // default-init storage, power-of-two capacity
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace pocc::common
