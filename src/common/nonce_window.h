#ifndef DSSP_COMMON_NONCE_WINDOW_H_
#define DSSP_COMMON_NONCE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

namespace dssp {

// At-most-once memory for retried wire frames: nonce -> the result the first
// delivery produced, bounded FIFO (the oldest nonce is forgotten once
// kCapacity newer ones arrived). Not synchronized: the owner guards it with
// the same mutex that serializes the apply, so a retry racing the original
// cannot slip between the Find and the Insert.
template <typename V>
class NonceWindow {
 public:
  static constexpr size_t kCapacity = 65536;

  // The stored result for `nonce`, or nullptr if it is not (or no longer)
  // remembered. Valid until the next Insert.
  const V* Find(uint64_t nonce) const {
    const auto it = entries_.find(nonce);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Remembers `nonce` (a nonce already present keeps its first result) and
  // forgets the oldest one beyond kCapacity.
  void Insert(uint64_t nonce, V value) {
    if (!entries_.try_emplace(nonce, std::move(value)).second) return;
    order_.push_back(nonce);
    if (order_.size() > kCapacity) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<uint64_t, V> entries_;
  std::deque<uint64_t> order_;
};

}  // namespace dssp

#endif  // DSSP_COMMON_NONCE_WINDOW_H_
