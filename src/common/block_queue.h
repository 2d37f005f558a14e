// Lock-free single-producer / single-consumer ring of BLOCKS.
//
// The ring moves whole process_batch-sized blocks, which is what the sharded
// runtime's block-staged ingest path (DESIGN.md §13) hands off: the producer
// stages keys DIRECTLY into the in-ring block it has open (zero staging
// copy), then publishes the whole block with ONE release store; the consumer
// borrows the block in place (no dequeue copy), feeds it to the batched
// sketch kernel, and releases the slot with one release store. Per item, the
// ring costs one store on each side — per-entry cursor traffic is amortized
// over the block. Capture decode (DESIGN.md §12.2) uses the same ring the
// same way: its framer writes record views into the open block, and its
// parser thread parses them in place.
//
// Layout: `block_count` payload blocks of `block_size` T slots, each block
// padded out to a whole number of cache lines and the base 64-byte aligned,
// so a staged block never shares a line with its neighbor and the consumer
// streams it without false sharing. Each block has a header slot
// {count, kind} on its own cache line; `kind` is opaque to the queue (the
// runtime tags payloads with it — unit keys / (key, weight) pairs / epoch
// markers).
//
// Protocol: the classic bounded ring with monotonic 64-bit produce/consume
// cursors (they never wrap in practice) plus each side's CACHED copy of the
// opposite cursor, so the hot path touches a shared cache line only when the
// cached view says the ring looks full/empty — the trick DPDK's rte_ring and
// folly::ProducerConsumerQueue use. The producer publishes with a release
// store of head_, the consumer acquires head_ before reading (and vice versa
// for tail_ on the return path). One cursor step per BLOCK:
//   producer:  T* slots = q.try_open();        // nullptr => ring full
//              ... fill slots[0..n) ...
//              q.publish(n, kind);             // ONE release store
//   consumer:  BlockQueue<T>::View v;
//              if (q.try_front(v)) { ... read v.data[0..v.count) ... ;
//                                    q.release(); }
//
// The producer may hold at most one block open per queue; the consumer must
// finish reading a View before release() — the slot is recycled after that.
// Roles are machine-checked thread-safety capabilities (see
// common/thread_annotations.h): try_open/publish require the producer role,
// try_front/release the consumer role, and each side's cached cursor is
// FCM_GUARDED_BY its role. A thread declares its role once per scope with
// assume_producer() / assume_consumer(), runtime no-ops that let Clang's
// -Wthread-safety prove the SPSC discipline at every call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/contracts.h"
#include "common/thread_annotations.h"

namespace fcm::common {

// Destructive interference distance; 64 bytes on every target we build for.
inline constexpr std::size_t kCacheLineBytes = 64;

// The one wait policy of every ring user, for a side that finds the ring
// full or empty. Yield first; park briefly once clearly idle so a
// single-core host still makes progress. `spins` counts this wait's calls.
inline void backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

template <typename T>
class BlockQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "BlockQueue blocks are copied raw between threads");
  static_assert(sizeof(T) <= kCacheLineBytes &&
                    kCacheLineBytes % sizeof(T) == 0,
                "BlockQueue pads blocks to whole cache lines");

 public:
  // A published block, borrowed in place from the ring. Valid until the
  // consumer calls release().
  struct View {
    const T* data = nullptr;
    std::uint32_t count = 0;
    std::uint32_t kind = 0;
  };

  // `block_count` blocks of `block_size` slots each. The ring ops are per
  // block, so block_count needs no power-of-two shape.
  BlockQueue(std::size_t block_count, std::size_t block_size)
      : block_count_(block_count),
        block_size_(block_size),
        stride_(pad_to_line(block_size)) {
    FCM_REQUIRE(block_count >= 1, "BlockQueue: need at least one block");
    FCM_REQUIRE(block_size >= 1 && block_size <= 0xffffffffu,
                "BlockQueue: block_size must fit the header's u32 count");
    headers_.resize(block_count_);
    // Over-allocate one line so the first block can start 64-byte aligned
    // regardless of where the vector's allocation landed.
    payload_.resize(block_count_ * stride_ + kCacheLineBytes / sizeof(T));
    const auto addr = reinterpret_cast<std::uintptr_t>(payload_.data());
    const std::uintptr_t aligned =
        (addr + kCacheLineBytes - 1) & ~std::uintptr_t(kCacheLineBytes - 1);
    base_ = payload_.data() + (aligned - addr) / sizeof(T);
  }

  BlockQueue(const BlockQueue&) = delete;
  BlockQueue& operator=(const BlockQueue&) = delete;

  std::size_t block_count() const noexcept { return block_count_; }
  std::size_t block_size() const noexcept { return block_size_; }

  // Published-but-unconsumed blocks; exact only when both sides are
  // quiescent. For monitoring, not for synchronization decisions.
  std::size_t size_approx_blocks() const noexcept {
    // Tail first: the consumer released tail only after acquiring a head at
    // least as large, so the head read after it cannot be smaller and the
    // difference never wraps.
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail);
  }

  // Producer-side occupancy high-water mark, in blocks. Updated against the
  // producer's cached view of the consumer cursor, so it can UNDERSTATE peak
  // occupancy by at most the staleness of that cache — good enough for the
  // scaling study's occupancy column, not a synchronization primitive.
  std::size_t high_water_blocks() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  // --- thread roles --------------------------------------------------------
  void assume_producer() const FCM_ASSERT_CAPABILITY(producer_role_) {}
  void assume_consumer() const FCM_ASSERT_CAPABILITY(consumer_role_) {}

  // --- producer side -------------------------------------------------------

  // Reserves the next block and returns its slot array, or nullptr when the
  // ring is full (caller applies backpressure). At most one block may be
  // open at a time.
  T* try_open() noexcept FCM_REQUIRES(producer_role_) {
    FCM_ASSERT(!open_, "BlockQueue: try_open with a block already open");
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= block_count_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= block_count_) return nullptr;
    }
    open_ = true;
    return base_ + (head % block_count_) * stride_;
  }

  // Publishes the open block: writes the header, then ONE release store of
  // the produce cursor makes header and payload visible to the consumer.
  void publish(std::uint32_t count,
               std::uint32_t kind) noexcept FCM_REQUIRES(producer_role_) {
    FCM_ASSERT(open_, "BlockQueue: publish without an open block");
    FCM_ASSERT(count <= block_size_, "BlockQueue: block overfilled");
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    Header& header = headers_[head % block_count_];
    header.count = count;
    header.kind = kind;
    head_.store(head + 1, std::memory_order_release);
    open_ = false;
    const std::size_t inflight =
        static_cast<std::size_t>(head + 1 - cached_tail_);
    if (inflight > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(inflight, std::memory_order_relaxed);
    }
  }

  // True once the consumer has released every published block. The acquire
  // load orders the consumer's reads of those blocks before the producer's
  // next writes, so memory the blocks pointed into may then be reused.
  bool drained() noexcept FCM_REQUIRES(producer_role_) {
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return head_.load(std::memory_order_relaxed) == cached_tail_;
  }

  // --- consumer side -------------------------------------------------------

  // Borrows the oldest published block without consuming it; returns false
  // when the ring is empty. Repeated calls return the same block until
  // release().
  bool try_front(View& out) noexcept FCM_REQUIRES(consumer_role_) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ - tail == 0) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ - tail == 0) return false;
    }
    const std::size_t slot = static_cast<std::size_t>(tail % block_count_);
    const Header& header = headers_[slot];
    out.data = base_ + slot * stride_;
    out.count = header.count;
    out.kind = header.kind;
    return true;
  }

  // Recycles the block returned by the last try_front. The View is dead
  // after this: the producer may immediately reuse the slot.
  void release() noexcept FCM_REQUIRES(consumer_role_) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    tail_.store(tail + 1, std::memory_order_release);
  }

 private:
  // One header per block on its own cache line, so the producer writing
  // block i+1's header never invalidates the line the consumer is reading
  // block i's header from.
  struct alignas(kCacheLineBytes) Header {
    std::uint32_t count = 0;
    std::uint32_t kind = 0;
  };

  static constexpr std::size_t pad_to_line(std::size_t block_size) noexcept {
    const std::size_t per_line = kCacheLineBytes / sizeof(T);
    return ((block_size + per_line - 1) / per_line) * per_line;
  }

  ThreadRole producer_role_;
  ThreadRole consumer_role_;

  const std::size_t block_count_;
  const std::size_t block_size_;
  const std::size_t stride_;  // slots per block incl. cache-line padding

  alignas(kCacheLineBytes) std::atomic<std::uint64_t> head_{0};  // published
  alignas(kCacheLineBytes) std::uint64_t cached_head_
      FCM_GUARDED_BY(consumer_role_) = 0;
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> tail_{0};  // released
  alignas(kCacheLineBytes) std::uint64_t cached_tail_
      FCM_GUARDED_BY(producer_role_) = 0;
  // Producer writes (publish); any thread may read. Telemetry only.
  alignas(kCacheLineBytes) std::atomic<std::size_t> high_water_{0};
  bool open_ FCM_GUARDED_BY(producer_role_) = false;

  std::vector<Header> headers_;
  std::vector<T> payload_;
  T* base_ = nullptr;  // 64-byte-aligned first block
};

}  // namespace fcm::common
