// Deterministic, seeded fault injection against the machine health registry.
//
// A FaultSchedule is a list of typed events pinned to simulation steps:
//
//   kGpuLoss         -- device drops off the bus (alive = false)
//   kGpuRecovery     -- device comes back at full clock
//   kGpuThrottle     -- thermal event: clock ramps to `clock_scale` (a later
//                       throttle event with scale 1.0 models the ramp back up)
//   kCpuPreemption   -- co-tenant steals cores: `cores` taken from the pool
//   kCpuRestore      -- preempted cores handed back (all of them)
//   kTransferFaults  -- transient-link window: each transfer attempt fails
//                       with `fail_prob` for `duration` steps (0 = until a
//                       later window event overrides it)
//
// Silent-data-corruption events (sdc/ subsystem) -- these arm a transient
// SdcPending on MachineHealth and, unlike every kind above, do NOT bump the
// fault epoch (corrupting data is not a capability change; an epoch bump
// would make the load balancer re-Search):
//
//   kBitFlip         -- flip one bit of the derived body state after the
//                       step's solve has been consumed
//   kSdcGpuBatch     -- corrupt one P2P batch result after it "returns from
//                       the device" but before it is applied
//   kSdcExpansion    -- flip one multipole coefficient between the upward
//                       and downward passes
//
// Each fired SDC event derives a per-event seed from (injector seed, step,
// kind), so the victim index and flipped bit replay bit-identically. A fired
// SDC event is also remembered in a monotone high-water mark: rolling the
// cursor back (checkpoint rollback) never re-fires an already-fired
// corruption, otherwise an unrepairable event would re-corrupt every replay
// and the run could never make progress past it.
//
// The injector owns no randomness of its own beyond a seed it folds with the
// step index into MachineHealth::transfer_seed, so a given (schedule, seed)
// replays the identical fault trajectory every run -- chaos tests are
// ordinary deterministic tests.
#pragma once

#include <cstdint>
#include <climits>
#include <string>
#include <vector>

#include "machine/health.hpp"

namespace afmm {

enum class FaultKind {
  kGpuLoss,
  kGpuRecovery,
  kGpuThrottle,
  kCpuPreemption,
  kCpuRestore,
  kTransferFaults,
  // event_seed() folds the kind's value into the SDC victim seed; these
  // values are fixed so a given (schedule, seed) keeps its victims.
  kBitFlip = 9,
  kSdcGpuBatch = 10,
  kSdcExpansion = 11,
};

const char* to_string(FaultKind k);
// True for the silent-corruption kinds (kBitFlip..kSdcExpansion).
bool is_sdc(FaultKind k);

struct FaultEvent;
// Human-readable one-liner for logs and trace-event args, e.g.
// "gpu-throttle dev=1 clock=0.6" or "transfer-faults p=0.3 for 5 steps".
std::string describe(const FaultEvent& e);

struct FaultEvent {
  int step = 0;
  FaultKind kind = FaultKind::kGpuLoss;
  int device = 0;           // GPU index (loss / recovery / throttle)
  double clock_scale = 1.0; // throttle target in (0, 1]
  int cores = 0;            // cores taken by kCpuPreemption
  double fail_prob = 0.0;   // kTransferFaults probability
  int duration = 0;         // fault-window length in steps
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  // Convenience builders; all return *this for chaining.
  FaultSchedule& gpu_loss(int step, int device);
  FaultSchedule& gpu_recovery(int step, int device);
  FaultSchedule& gpu_throttle(int step, int device, double clock_scale);
  FaultSchedule& cpu_preemption(int step, int cores);
  FaultSchedule& cpu_restore(int step);
  FaultSchedule& transfer_faults(int step, double fail_prob, int duration);
  FaultSchedule& bit_flip(int step);
  FaultSchedule& sdc_gpu_batch(int step);
  FaultSchedule& sdc_expansion(int step);

  bool empty() const { return events.empty(); }
};

// Replay cursor of the injector (checkpoint/restore). The schedule and seed
// are configuration and are NOT serialized -- a restored injector must be
// constructed from the same (schedule, seed) the original run used, and
// `num_events` lets restore() verify that.
struct FaultInjectorSnapshot {
  std::uint64_t next_event = 0;
  int transfer_window_end = -1;
  std::uint64_t num_events = 0;
  // High-water mark of events that have fired at least once this run.
  // Restoring an OLDER snapshot keeps the CURRENT mark (max of the two):
  // already-fired silent-corruption events must never fire again on replay.
  std::uint64_t fired_mark = 0;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultSchedule schedule, std::uint64_t seed = 0x5eed);

  // Applies every not-yet-applied event scheduled at or before `step` to
  // `health` and rotates the transfer seed. Returns the events fired this
  // call, in schedule order. Steps must be visited in nondecreasing order
  // between restore()s; an out-of-order visit throws std::logic_error
  // instead of silently double-applying events.
  std::vector<FaultEvent> advance_to(int step, MachineHealth& health);

  bool exhausted() const;
  const FaultSchedule& schedule() const { return schedule_; }

  FaultInjectorSnapshot snapshot() const;
  // Rewind/advance the cursor to a snapshot taken from an injector built
  // with the same schedule; throws std::invalid_argument on a schedule-size
  // mismatch (the snapshot then belongs to a different run configuration).
  void restore(const FaultInjectorSnapshot& snap);

 private:
  void apply(const FaultEvent& e, MachineHealth& health);
  // Deterministic per-event seed for SDC victim/bit selection.
  std::uint64_t event_seed(const FaultEvent& e) const;

  FaultSchedule schedule_;  // kept sorted by step (stable)
  std::uint64_t seed_ = 0x5eed;
  std::size_t next_ = 0;
  // Step at which an active transfer-fault window expires (-1 = none).
  int transfer_window_end_ = -1;
  // Monotone count of events that have fired at least once (never rewound
  // by restore); SDC events below this mark are skipped on replay.
  std::size_t fired_mark_ = 0;
  // Last step visited since construction/restore; guards the
  // nondecreasing-step contract of advance_to.
  int last_step_ = INT_MIN;
};

}  // namespace afmm
