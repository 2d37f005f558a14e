// Exact-match heavy-flow cache: the OVS-EMC-shaped front end from ROADMAP
// open item 2 and the FPGA sketch-acceleration paper (PAPERS.md) — hot flows
// are counted exactly in a small set-associative table and never touch the
// multi-tree FCM walk; cold flows churn through the table and are DEMOTED
// into the backing sketch on eviction, so no packet is ever dropped from the
// measurement (conservation is a tested invariant, not a hope).
//
// One host runs it: the sharded runtime's driver, in byte-count mode only
// (DESIGN.md §12.4) — byte counts carry past level 1 on nearly every packet,
// so absorbing a hot flow's bytes pays; unit counts do not.
//
// Eviction is smallest-count-in-set: a newly arriving flow always installs
// (recency), displacing the set's lightest entry (frequency). Hot flows
// accumulate large exact counts and become practically unevictable; the
// Zipf tail keeps displacing itself. Every offer names what the sketch must
// absorb (Result::demote_key/demote_count), and drain() hands back the
// resident counts at an epoch boundary; the host only decides where those
// units go. FCM counters are order-independent sums, so a demotion may be
// applied as one weighted add or split into parts without changing a bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "flow/flow_key.h"
#include "obs/metrics_registry.h"

namespace fcm::datapath {

class HeavyFlowCache {
 public:
  struct Options {
    // Total entries; must be a power of two >= `ways`. 8192 x 8-byte entries
    // is L1/L2-resident, the regime where the exact path beats the sketch.
    std::size_t entries = 8192;
    // Set associativity; must divide `entries` and be >= 1. 4 mirrors the
    // EMC's probe depth: enough conflict tolerance, still branch-cheap.
    std::size_t ways = 4;
    std::uint64_t seed = 0xcac4e;
  };

  // What the sketch must absorb after an offer: demote_count units of
  // demote_key, or nothing when demote_count == 0 (the cache kept them).
  // Hosts need only `if (r.demote_count > 0) sink(r.demote_key,
  // r.demote_count)`; `outcome` says why, for tests and telemetry.
  struct Result {
    enum class Outcome : std::uint8_t {
      kHit,       // resident flow; count absorbed exactly
      kInserted,  // new flow installed into an empty way
      kEvicted,   // new flow installed; the displaced flow is demoted
      kBypass,    // key 0 (the empty-slot sentinel): the offer is demoted
    };
    Outcome outcome = Outcome::kBypass;
    flow::FlowKey demote_key{};
    std::uint64_t demote_count = 0;
  };

  explicit HeavyFlowCache(Options options);

  // Offers `count` units (packets or bytes) of `key`. Never allocates; safe
  // on the per-packet hot path.
  Result offer(flow::FlowKey key, std::uint64_t count);

  // Exact count of a resident flow; 0 when absent (key 0 is never resident).
  std::uint64_t count_of(flow::FlowKey key) const;

  // Visits every resident (key, count) pair — epoch folding walks this.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (const Entry& entry : table_) {
      if (entry.key.value != 0) visit(entry.key, entry.count);
    }
  }

  // Hands every resident flow to `visit` for demotion into the sketch and
  // empties the table in one sweep (epoch rotation, reset). The
  // hit/miss/eviction counters and the unit ledger stay cumulative.
  template <typename Visitor>
  void drain(Visitor&& visit) {
    for (Entry& entry : table_) {
      if (entry.key.value != 0) {
        evicted_units_ += entry.count;  // keeps the conservation ledger exact
        visit(entry.key, entry.count);
        entry = Entry{};
      }
    }
  }

  // Conservation bookkeeping: units accepted (hits + installs), units handed
  // back through evictions, and units currently resident. At all times
  // offered_units() == evicted_units() + resident_units() + bypassed units
  // routed by the caller (check_invariants asserts the cache-side part).
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t offered_units() const noexcept { return offered_units_; }
  std::uint64_t evicted_units() const noexcept { return evicted_units_; }
  std::uint64_t resident_units() const;
  std::size_t resident_flows() const;

  std::size_t entry_count() const noexcept { return table_.size(); }
  std::size_t memory_bytes() const { return table_.size() * sizeof(Entry); }
  const Options& options() const noexcept { return options_; }

  // Deep invariants: sentinel slots carry no count, occupied slots a nonzero
  // one, and the unit ledger balances (offered == resident + evicted).
  void check_invariants() const;

 private:
  struct Entry {
    flow::FlowKey key{};  // key.value == 0 means empty
    std::uint64_t count = 0;
  };

  std::size_t set_base(flow::FlowKey key) const {
    // Set index via bob-hash + fast-range over the number of sets; each set
    // is `ways` consecutive entries (one or two cache lines).
    return common::fast_range32(common::bob_hash_u32(key.value, seed_low_),
                                sets_) * options_.ways;
  }

  Options options_;
  std::uint32_t seed_low_ = 0;
  std::size_t sets_ = 0;
  std::vector<Entry> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t offered_units_ = 0;
  std::uint64_t evicted_units_ = 0;
};

// The fcm_datapath_cache_* series of the sharded runtime's driver cache. The
// hot path touches no atomics: the cache's plain counters accumulate, and
// publish() pushes the deltas since the last call plus the resident-flows
// gauge. A null registry makes publish() a no-op.
class CacheMetrics {
 public:
  explicit CacheMetrics(obs::MetricsRegistry* registry);

  void publish(const HeavyFlowCache& cache);

 private:
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* resident_flows_ = nullptr;
  // Cumulative cache counters already pushed (publish emits deltas).
  std::uint64_t published_hits_ = 0;
  std::uint64_t published_misses_ = 0;
  std::uint64_t published_evictions_ = 0;
};

}  // namespace fcm::datapath
