// Trace-based invariant checker: replays a run's trace and asserts the
// protocol promises the paper states, instead of trusting end-of-run
// counters. It is the only trace checker: tests, bench binaries and the
// chaos/soak/mem-chaos oracle call it in-process, and
// examples/trace_check runs it over a JSONL dump (trace/jsonl.hpp).
// Five invariants:
//
//  1. Release safety (§3, "Probe Messages"): the sender never releases
//     a byte before every armed, live member reported covering it. The
//     checker tracks each receiver's reported high-water (from its own
//     kJoined/kUpdate/kNakEmit/kRateRequest emissions — a superset of
//     what reached the sender, and every report precedes the release in
//     trace-time, so sender knowledge ⊆ checker knowledge and the check
//     is sound). Crash (kDown until kResync), eviction (kEvict until a
//     new kJoined) and kRmcFallback dead-member releases exempt a
//     receiver from the gate, matching the protocol's own semantics.
//
//  2. NAKs answered within a bound: every kNakEmit range is cleared by
//     an overlapping sender kRetransmit/kNakErr (or mooted by the
//     receiver's own coverage advancing past it, or the receiver going
//     down) within `nak_answer_bound` of its first emission.
//
//  3. Rate conformance: a token bucket fed at the advertised rate (the
//     value field of kSend/kRetransmit) never goes negative beyond the
//     pacing slack (one jiffy's burst plus carry), and no *new* data is
//     sent while an urgent stop (kUrgentStop's stop-until) is in force
//     — the §2 rule 3 contract.
//
//  4. Budget safety (DESIGN.md §16), see VerifyOptions::mem_budget.
//
//  5. Counter monotonicity: an armed receiver's coverage reports never
//     fall behind its high-water between re-anchors (only kJoined and
//     kResync move the baseline; kRejoin and link flaps do not), and
//     the sender's release head never regresses at all. A kAggUpdate
//     raises the high-water but is exempt from the check: its seq is a
//     subtree minimum, which drops when a laggard child registers.
//     Regression on either side is silent state drift — the corruption
//     a restart or a flap-window race would introduce. Always on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hrmc::trace {

struct VerifyOptions {
  /// Check invariant 1. Turn off for Mode::kRmc (release is
  /// unconditional by design) and for kRmcFallback scenarios where the
  /// trace may be truncated (a dropped kDeadRelease would false-fail).
  bool check_release = true;
  /// Invariant 2's answer deadline, first NAK emission to sender
  /// response. Generous by default: it is a liveness floor, not a
  /// latency SLO.
  sim::SimTime nak_answer_bound = sim::seconds(2);
  /// Invariant 4, budget safety: every kAllocFail / kCacheEvict record
  /// carries the emitting host's ledger live bytes in its value field;
  /// none may exceed mem_budget. The accountant enforces this by
  /// construction (try_charge refuses rather than overshoot), so a
  /// violation means a consumer bypassed try_charge or forgot an
  /// uncharge. 0 skips the check.
  std::uint64_t mem_budget = 0;
};

/// VerifyResult::violations keeps the first this many rendered
/// violations; violation_count keeps counting past it.
inline constexpr std::size_t kMaxViolations = 32;

struct VerifyResult {
  bool ok = true;
  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;  ///< first kMaxViolations, rendered

  // Work done, so a "pass" on an empty trace is distinguishable from a
  // pass that actually checked something.
  std::uint64_t releases_checked = 0;
  std::uint64_t naks_checked = 0;
  std::uint64_t sends_checked = 0;
  std::uint64_t mem_checked = 0;  ///< kAllocFail/kCacheEvict records seen
  /// Invariant 5: armed coverage reports plus releases.
  std::uint64_t progress_checked = 0;
};

/// Replays `records` (must be in time order, as TraceRing::records()
/// returns them) and checks invariants 2, 3 and 5, plus 1 and 4 as
/// `opt` enables them.
VerifyResult verify(const std::vector<TraceRecord>& records,
                    const VerifyOptions& opt = {});

}  // namespace hrmc::trace
