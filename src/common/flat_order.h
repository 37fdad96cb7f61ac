// Flat, key-ordered vectors: the shape of the time-ordered holders on the
// per-message path (pattern candidate stores, alignment buffers, negation
// blockers and window indexes). Arrivals mostly come in key order, so a
// placement first checks the back and appends; any other arrival is
// placed by binary search. Expiry erases a prefix. No entry costs a node
// allocation.
#ifndef CEDR_COMMON_FLAT_ORDER_H_
#define CEDR_COMMON_FLAT_ORDER_H_

#include <algorithm>
#include <iterator>

namespace cedr {

/// Where a unique `key` goes in [first, last), sorted by `key_of`: the
/// first position whose key is not below it. An equal key found there is
/// the stored copy.
template <typename It, typename Key, typename KeyOf>
It LowerPlace(It first, It last, const Key& key, KeyOf key_of) {
  if (first == last || key_of(*std::prev(last)) < key) return last;
  return std::partition_point(
      first, last, [&](const auto& x) { return key_of(x) < key; });
}

/// Where `key` goes in [first, last), sorted by `key_of`, after every
/// equal key: equal keys keep their insertion order.
template <typename It, typename Key, typename KeyOf>
It UpperPlace(It first, It last, const Key& key, KeyOf key_of) {
  if (first == last || !(key < key_of(*std::prev(last)))) return last;
  return std::partition_point(
      first, last, [&](const auto& x) { return !(key < key_of(x)); });
}

}  // namespace cedr

#endif  // CEDR_COMMON_FLAT_ORDER_H_
