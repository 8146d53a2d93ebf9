// IdTable<T>: the live records of an admission ledger (a server's streams, the
// transport's flows), keyed by the monotone ids the ledger hands out. Records
// sit in one vector in ascending id order, so a lookup is a binary search and
// the newest-first scan that picks overload victims is a reverse walk. A
// released record is marked dead in place; dead records at the end go at
// once, and the rest are swept out, in place, once the dead outnumber the
// live. Once the vector has grown to the ledger's working size, adding and
// releasing records allocate nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qosnp {

template <typename T>
class IdTable {
 public:
  /// Add a record; `id` must exceed every id added before.
  void add(std::uint64_t id, T value) {
    slots_.push_back(Slot{id, true, std::move(value)});
    ++live_;
  }

  /// The live record with this id, or nullptr.
  T* find(std::uint64_t id) {
    Slot* slot = slot_of(id);
    return slot != nullptr ? &slot->value : nullptr;
  }
  const T* find(std::uint64_t id) const { return const_cast<IdTable*>(this)->find(id); }

  /// Drop the live record with this id; false when there is none.
  bool erase(std::uint64_t id) {
    Slot* slot = slot_of(id);
    if (slot == nullptr) return false;
    slot->live = false;
    --live_;
    // A rolled-back reservation is the newest record: drop it, and the dead
    // records before it, at once.
    while (!slots_.empty() && !slots_.back().live) slots_.pop_back();
    if (slots_.size() - live_ > live_) {
      std::erase_if(slots_, [](const Slot& s) { return !s.live; });
    }
    return true;
  }

  std::size_t size() const { return live_; }

  /// Call fn(id, record) for every live record, oldest first.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.live) fn(s.id, s.value);
    }
  }
  /// Call fn(id, record) for every live record, newest first, until it
  /// returns false.
  template <typename Fn>
  void for_each_newest_first(Fn fn) const {
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
      if (it->live && !fn(it->id, it->value)) return;
    }
  }

 private:
  struct Slot {
    std::uint64_t id;
    bool live;
    T value;
  };

  Slot* slot_of(std::uint64_t id) {
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), id,
                                     [](const Slot& s, std::uint64_t key) { return s.id < key; });
    return it != slots_.end() && it->id == id && it->live ? &*it : nullptr;
  }

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
};

}  // namespace qosnp
