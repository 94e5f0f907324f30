// Tests for the observability subsystem: the trace ring, the sink,
// the sampler, the JSONL dump, and — most importantly — the invariant
// checker, including proof that it actually FAILS on corrupted traces
// (a checker that never fires is indistinguishable from no checker).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "trace/jsonl.hpp"
#include "trace/sampler.hpp"
#include "trace/trace.hpp"
#include "trace/verify.hpp"

using namespace hrmc;
using trace::EventKind;
using trace::TraceRecord;

namespace {

TraceRecord rec(sim::SimTime t, std::uint16_t host, EventKind k,
                kern::Seq begin, kern::Seq end, std::uint64_t value,
                std::uint32_t aux = 0) {
  TraceRecord r;
  r.t = t;
  r.host = host;
  r.kind = k;
  r.seq_begin = begin;
  r.seq_end = end;
  r.value = value;
  r.aux = aux;
  return r;
}

/// True if some rendered violation contains `text`.
bool has_violation(const trace::VerifyResult& v, const std::string& text) {
  return std::any_of(v.violations.begin(), v.violations.end(),
                     [&](const std::string& s) {
                       return s.find(text) != std::string::npos;
                     });
}

trace::JsonlRead read_text(const std::string& text) {
  std::istringstream is(text);
  return trace::read_jsonl(is);
}

}  // namespace

// --- ring -------------------------------------------------------------

TEST(TraceRing, StoresInOrderBelowCapacity) {
  trace::TraceRing ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.push(rec(i, 0, EventKind::kSend, 0, 0, 0));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(recs[i].t, i);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  trace::TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.push(rec(i, 0, EventKind::kSend, 0, 0, 0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest surviving record first: 2, 3, 4, 5.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recs[i].t, i + 2);
}

TEST(TraceRing, ClearResets) {
  trace::TraceRing ring(2);
  ring.push(rec(1, 0, EventKind::kSend, 0, 0, 0));
  ring.push(rec(2, 0, EventKind::kSend, 0, 0, 0));
  ring.push(rec(3, 0, EventKind::kSend, 0, 0, 0));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.records().empty());
}

// --- sink -------------------------------------------------------------

TEST(TraceSink, DefaultConstructedSinkIsInert) {
  trace::TraceSink sink;
  // Must not crash; with tracing off this is an empty inline anyway.
  sink.emit(EventKind::kSend, 0, 100, 1);
  sink.emit_as(7, EventKind::kDrop, 0, 0, 58);
  EXPECT_FALSE(sink.active());
}

TEST(TraceSink, StampsTimeHostAndFields) {
  if (!trace::kEnabled) GTEST_SKIP() << "tracing compiled out";
  sim::Scheduler sched;
  trace::TraceRing ring(16);
  trace::TraceSink sink(&ring, &sched, 42);
  sched.schedule_at(sim::milliseconds(5), [&] {
    sink.emit(EventKind::kNakEmit, 100, 200, 77, 3, trace::kFlagSolicited);
  });
  sched.run_while([] { return true; }, sim::seconds(1));
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].t, sim::milliseconds(5));
  EXPECT_EQ(recs[0].host, 42);
  EXPECT_EQ(recs[0].kind, EventKind::kNakEmit);
  EXPECT_EQ(recs[0].seq_begin, 100u);
  EXPECT_EQ(recs[0].seq_end, 200u);
  EXPECT_EQ(recs[0].value, 77u);
  EXPECT_EQ(recs[0].aux, 3u);
  EXPECT_EQ(recs[0].flags, trace::kFlagSolicited);
}

// --- sampler ----------------------------------------------------------

TEST(Sampler, SamplesPeriodicallyUntilStopped) {
  sim::Scheduler sched;
  int calls = 0;
  trace::Sampler sampler(sched, sim::milliseconds(10), [&] {
    trace::SamplePoint p;
    p.rate_bps = ++calls;
    return p;
  });
  sampler.start();
  sched.run_while([&] { return sched.now() < sim::milliseconds(95); },
                  sim::milliseconds(95));
  sampler.stop();
  // Immediate sample at t=0 plus one every 10 ms.
  const auto& s = sampler.samples();
  ASSERT_GE(s.size(), 9u);
  EXPECT_EQ(s[0].t, 0);
  EXPECT_EQ(s[0].rate_bps, 1.0);
  EXPECT_EQ(s[1].t, sim::milliseconds(10));
  // Stopped: no more samples accrue.
  const std::size_t n = s.size();
  sched.run_while([&] { return sched.now() < sim::milliseconds(200); },
                  sim::milliseconds(200));
  EXPECT_EQ(sampler.samples().size(), n);
}

// --- JSONL ------------------------------------------------------------

TEST(TraceJsonl, OneObjectPerLine) {
  std::vector<TraceRecord> recs{
      rec(5, 0, EventKind::kSend, 1, 1461, 1000000),
      rec(9, 1, EventKind::kNakEmit, 100, 200, 100, 0),
  };
  std::ostringstream os;
  trace::write_jsonl(os, recs);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"nak\""), std::string::npos);
  EXPECT_NE(out.find("\"seq_end\":1461"), std::string::npos);
}

TEST(TraceJsonl, RoundTripsEveryKind) {
  std::vector<TraceRecord> recs;
  for (unsigned k = 0; k <= std::numeric_limits<std::uint8_t>::max(); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (std::string(trace::kind_name(kind)) == "?") continue;
    TraceRecord r = rec(1000 * k, static_cast<std::uint16_t>(k), kind, k,
                        k + 1460, 7 * k, k);
    r.flags = static_cast<std::uint8_t>(k);
    recs.push_back(r);
  }
  EXPECT_GT(recs.size(), 30u);
  // Field extremes.
  TraceRecord hi = rec(std::numeric_limits<sim::SimTime>::max(), 65535,
                       EventKind::kRelease, 0xffffffffu, 0xffffffffu,
                       std::numeric_limits<std::uint64_t>::max(),
                       0xffffffffu);
  hi.flags = 255;
  recs.push_back(hi);
  recs.push_back(rec(0, 0, EventKind::kNone, 0, 0, 0));

  std::ostringstream os;
  trace::write_jsonl(os, recs);
  const trace::JsonlRead back = read_text(os.str());
  EXPECT_EQ(back.error, "");
  EXPECT_EQ(back.records, recs);
}

TEST(TraceJsonl, RejectsMalformedLines) {
  const std::string good =
      "{\"t\":5,\"host\":1,\"kind\":\"nak\",\"seq_begin\":100,"
      "\"seq_end\":200,\"value\":100,\"aux\":0,\"flags\":0}";
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  // A valid line and a blank one first: the error names line 3.
  const auto error_of = [&](const std::string& bad) {
    const trace::JsonlRead r = read_text(good + "\n\n" + bad + "\n");
    EXPECT_TRUE(r.records.empty()) << bad;
    return r.error;
  };
  const auto expect_error = [&](const std::string& bad,
                                const std::string& what) {
    const std::string err = error_of(bad);
    EXPECT_EQ(err.rfind("line 3: ", 0), 0u) << bad << " -> " << err;
    EXPECT_NE(err.find(what), std::string::npos) << bad << " -> " << err;
  };

  EXPECT_EQ(read_text(good + "\n").error, "");
  expect_error("{\"t\":1}", "missing key \"host\"");
  expect_error(with("\"aux\":0", "\"aux\":0,\"x\":1"), "unknown key \"x\"");
  expect_error(with("\"aux\":0", "\"t\":0"), "repeated key \"t\"");
  expect_error(with("\"nak\"", "\"bogus\""), "unknown kind \"bogus\"");
  expect_error(with("\"nak\"", "\"?\""), "unknown kind");
  expect_error(with("\"nak\"", "23"), "\"kind\": not a string");
  expect_error(with("\"value\":100", "\"value\":1.5"),
               "\"value\": not an integer");
  expect_error(with("\"value\":100", "\"value\":\"100\""),
               "\"value\": not an integer");
  expect_error(with("\"value\":100", "\"value\":true"),
               "\"value\": not an integer");
  expect_error(with("\"host\":1", "\"host\":65536"),
               "\"host\": value out of range");
  expect_error(with("\"flags\":0", "\"flags\":256"),
               "\"flags\": value out of range");
  expect_error(with("\"seq_begin\":100", "\"seq_begin\":4294967296"),
               "\"seq_begin\": value out of range");
  expect_error(with("\"seq_end\":200", "\"seq_end\":-1"),
               "\"seq_end\": value out of range");
  expect_error(good + "x", "trailing bytes");
  expect_error(good + "{}", "trailing bytes");
  expect_error("[1]", "expected '{'");
}

// --- verifier: synthetic traces (run in both build modes) --------------

TEST(TraceVerify, CleanSyntheticTracePasses) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 1, 1, /*addr=*/42));
  t.push_back(rec(1000, 0, EventKind::kSend, 1, 1461, 1'000'000));
  t.push_back(rec(2000, 1, EventKind::kUpdate, 1461, 1461, 0));
  t.push_back(rec(3000, 0, EventKind::kRelease, 1, 1461, 0));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.releases_checked, 1u);
  EXPECT_EQ(v.sends_checked, 1u);
}

TEST(TraceVerify, FlagsReleaseBeyondReceiverReport) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  // The receiver never reported past 100, yet the sender releases 200.
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  EXPECT_GE(v.violation_count, 1u);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("release"), std::string::npos);
}

TEST(TraceVerify, CrashExemptsReceiverFromReleaseGate) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(500, 1, EventKind::kDown, 0, 0, 0));
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  EXPECT_TRUE(trace::verify(t).ok);
}

TEST(TraceVerify, FlagsNakNeverAnswered) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 0, 0, 42));
  t.push_back(rec(1000, 1, EventKind::kNakEmit, 1000, 2000, /*rcv_nxt=*/1000));
  // Trace runs three simulated seconds with no retransmission.
  t.push_back(rec(sim::seconds(3), 1, EventKind::kUpdate, 1000, 1000, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("never answered"), std::string::npos);
}

TEST(TraceVerify, NakAnsweredInTimePasses) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 0, 0, 42));
  t.push_back(rec(1000, 1, EventKind::kNakEmit, 1000, 2000, 1000));
  t.push_back(
      rec(sim::milliseconds(50), 0, EventKind::kRetransmit, 1000, 2000,
          1'000'000));
  t.push_back(rec(sim::seconds(3), 1, EventKind::kUpdate, 2000, 2000, 0));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.naks_checked, 1u);
}

TEST(TraceVerify, FlagsSendBurstAboveAdvertisedRate) {
  // One packet far larger than the token bucket at the advertised rate
  // (1 MB/s -> cap ~= 32 KB) — an impossible burst.
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 40000, 1'000'000));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("byte-tokens"), std::string::npos);
}

TEST(TraceVerify, FlagsNewDataDuringUrgentStop) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 1460, 1'000'000));
  t.push_back(rec(1000, 0, EventKind::kUrgentStop, 1460, 1460,
                  /*stop until=*/sim::seconds(5), 500'000));
  t.push_back(
      rec(sim::seconds(1), 0, EventKind::kSend, 1460, 2920, 1'000'000));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations.back().find("urgent stop"), std::string::npos);
}

TEST(TraceVerify, RetransmissionDuringUrgentStopIsAllowed) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kSend, 0, 1460, 1'000'000));
  t.push_back(rec(1000, 0, EventKind::kUrgentStop, 1460, 1460,
                  sim::seconds(5), 500'000));
  t.push_back(rec(sim::seconds(1), 0, EventKind::kRetransmit, 0, 1460,
                  1'000'000));
  EXPECT_TRUE(trace::verify(t).ok);
}

TEST(TraceVerify, OptionsDisableIndividualChecks) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 0, EventKind::kRelease, 100, 200, 0));
  trace::VerifyOptions opt;
  opt.check_release = false;
  EXPECT_TRUE(trace::verify(t, opt).ok);
  EXPECT_EQ(trace::verify(t, opt).releases_checked, 0u);
  // The other invariants still run: a regressing release head is caught.
  t.push_back(rec(2000, 0, EventKind::kRelease, 100, 150, 0));
  const auto v = trace::verify(t, opt);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(has_violation(v, "release head 150 regressed behind 200"));
}

// --- invariant 5: counter monotonicity --------------------------------

TEST(TraceVerify, FlagsReceiverPositionRegression) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 1, EventKind::kUpdate, 3000, 3000, 0));
  t.push_back(rec(2000, 1, EventKind::kRateRequest, 2000, 2000, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.violation_count, 1u);
  EXPECT_EQ(v.progress_checked, 2u);
  EXPECT_TRUE(has_violation(v, "reported position 2000 regressed behind the "
                               "high-water 3000"));
}

TEST(TraceVerify, RejoinDoesNotReanchorHighWater) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 1, EventKind::kUpdate, 3000, 3000, 0));
  t.push_back(rec(2000, 1, EventKind::kRejoin, 3000, 3000, 0));
  t.push_back(rec(3000, 1, EventKind::kUpdate, 1000, 1000, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(has_violation(v, "regressed behind the high-water 3000"));
}

TEST(TraceVerify, FlagsReleaseHeadRegression) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 0, EventKind::kRelease, 0, 2920, 0));
  t.push_back(rec(1000, 0, EventKind::kRelease, 0, 1460, 0));
  const auto v = trace::verify(t);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.progress_checked, 2u);
  EXPECT_TRUE(has_violation(v, "release head 1460 regressed behind 2920"));
}

TEST(TraceVerify, ResyncReanchorsHighWater) {
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 1, EventKind::kUpdate, 3000, 3000, 0));
  t.push_back(rec(2000, 1, EventKind::kDown, 0, 0, 0));
  t.push_back(rec(3000, 1, EventKind::kUp, 0, 0, 0));
  t.push_back(rec(4000, 1, EventKind::kResyncJoin, 0, 0, 42));
  t.push_back(rec(5000, 1, EventKind::kResync, 1000, 1000, 0));
  t.push_back(rec(6000, 1, EventKind::kUpdate, 1000, 1000, 0));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
}

TEST(TraceVerify, LowerAggregateUpdateIsNotRegression) {
  // A laggard child registering pulls the subtree minimum down.
  std::vector<TraceRecord> t;
  t.push_back(rec(0, 1, EventKind::kJoined, 100, 100, 42));
  t.push_back(rec(1000, 1, EventKind::kAggUpdate, 3000, 3000, 2));
  t.push_back(rec(2000, 1, EventKind::kAggUpdate, 500, 500, 3));
  const auto v = trace::verify(t);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.progress_checked, 0u);
}

// --- verifier over real traces (need trace points compiled in) ---------

namespace {

harness::Scenario traced_lan(std::uint64_t seed) {
  harness::Workload wl;
  wl.file_bytes = 2 * 1024 * 1024;
  harness::Scenario sc =
      harness::lan_scenario(3, 10e6, 256 * 1024, wl, seed);
  sc.trace.enabled = true;
  sc.trace.sample_period = sim::milliseconds(100);
  return sc;
}


}  // namespace

TEST(TraceHarness, CleanRunProducesVerifiableTrace) {
  if (!trace::kEnabled) GTEST_SKIP() << "tracing compiled out";
  const harness::RunResult r = harness::run_transfer(traced_lan(101));
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.trace_records.empty());
  EXPECT_FALSE(r.samples.empty());
  EXPECT_EQ(r.trace_dropped, 0u);
  const auto v = trace::verify(r.trace_records);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_GT(v.releases_checked, 0u);
  EXPECT_GT(v.sends_checked, 0u);
  // Samples carry real curves: the rate is nonzero mid-transfer.
  bool nonzero_rate = false;
  for (const auto& p : r.samples) nonzero_rate |= p.rate_bps > 0;
  EXPECT_TRUE(nonzero_rate);
}

TEST(TraceHarness, LossyFaultedRunStillVerifies) {
  if (!trace::kEnabled) GTEST_SKIP() << "tracing compiled out";
  harness::Scenario sc = traced_lan(202);
  net::GilbertElliottConfig ge;
  sc.faults.burst_loss(0, sim::milliseconds(500), ge)
      .burst_loss_stop(0, sim::milliseconds(1500))
      .link_down(1, sim::seconds(2))
      .link_up(1, sim::milliseconds(2300))
      .crash(2, sim::milliseconds(2600))
      .restart(2, sim::milliseconds(3600));
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  const auto v = trace::verify(r.trace_records);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_GT(v.releases_checked, 0u);
}

TEST(TraceHarness, CorruptedRealTraceFailsVerification) {
  if (!trace::kEnabled) GTEST_SKIP() << "tracing compiled out";
  harness::RunResult r = harness::run_transfer(traced_lan(303));
  ASSERT_TRUE(r.completed);
  // Strip every sender answer and inject a NAK for a hole far beyond
  // anything the run covers (so no real UPDATE moots it), then let the
  // trace run 10 simulated seconds past it: the doctored trace must NOT
  // verify — an unanswerable NAK aged past the bound.
  std::vector<TraceRecord> doctored;
  for (const TraceRecord& rr : r.trace_records) {
    if (rr.kind == EventKind::kRetransmit || rr.kind == EventKind::kNakErr) {
      continue;
    }
    doctored.push_back(rr);
  }
  ASSERT_FALSE(doctored.empty());
  TraceRecord nak = rec(doctored.front().t, 1, EventKind::kNakEmit,
                        0x40000000u, 0x40010000u, 0);
  doctored.insert(doctored.begin() + 1, nak);
  // An inert trailer (not a coverage report, so invariant 5 stays out
  // of it) carries the trace 10 s on.
  doctored.push_back(rec(doctored.back().t + sim::seconds(10), 1,
                         EventKind::kRegion, 0, 0, 0));
  const auto v = trace::verify(doctored);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(has_violation(v, "never answered"));
}

TEST(TraceHarness, MutatedRealTraceIsCaught) {
  if (!trace::kEnabled) GTEST_SKIP() << "tracing compiled out";
  // examples/trace_dump --lossy: a 4 MiB transfer long enough for the
  // burst to draw NAKs and for the flap and crash to land mid-stream.
  harness::Workload wl;
  wl.file_bytes = 4 * 1024 * 1024;
  harness::Scenario sc =
      harness::lan_scenario(3, 10e6, 256 * 1024, wl, 20260806);
  sc.trace.enabled = true;
  net::GilbertElliottConfig ge;
  sc.faults.burst_loss(0, sim::seconds(1), ge)
      .burst_loss_stop(0, sim::milliseconds(2500))
      .link_down(1, sim::seconds(3))
      .link_up(1, sim::milliseconds(3400))
      .crash(2, sim::seconds(4))
      .restart(2, sim::milliseconds(5500));
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  const std::vector<TraceRecord>& real = r.trace_records;
  ASSERT_TRUE(trace::verify(real).ok);

  // Index of the first (or last) record of `kind`.
  const auto find = [&](EventKind kind, bool last) {
    std::size_t found = real.size();
    for (std::size_t i = 0; i < real.size(); ++i) {
      if (real[i].kind != kind) continue;
      found = i;
      if (!last) break;
    }
    EXPECT_LT(found, real.size()) << trace::kind_name(kind);
    return found;
  };
  const auto caught = [&](std::size_t i, auto edit, const std::string& what) {
    if (i >= real.size()) return;
    std::vector<TraceRecord> mutated = real;
    edit(mutated[i]);
    const auto v = trace::verify(mutated);
    EXPECT_FALSE(v.ok) << what;
    EXPECT_TRUE(has_violation(v, what))
        << what << " | first: "
        << (v.violations.empty() ? "" : v.violations[0]);
  };

  // 1. The final release claims 1 MB no receiver reported.
  caught(find(EventKind::kRelease, true),
         [](TraceRecord& x) { x.seq_end += 1 << 20; }, "only reported");
  // 2. A NAK for a hole nothing ever fills or answers.
  caught(find(EventKind::kNakEmit, false),
         [](TraceRecord& x) {
           x.seq_begin = 0x40000000u;
           x.seq_end = 0x40010000u;
         },
         "never answered");
  // 3. A first transmission 64 KB larger than the bucket allows.
  caught(find(EventKind::kSend, false),
         [](TraceRecord& x) { x.seq_end += 64 * 1024; }, "byte-tokens");
  // 5. The last UPDATE reports one segment less than its sender had.
  caught(find(EventKind::kUpdate, true),
         [](TraceRecord& x) { x.seq_begin -= 1460; },
         "regressed behind the high-water");
}

TEST(TraceHarness, TracingOffByDefaultLeavesResultEmpty) {
  harness::Workload wl;
  wl.file_bytes = 512 * 1024;
  harness::Scenario sc = harness::lan_scenario(1, 10e6, 256 * 1024, wl, 7);
  const harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.trace_records.empty());
  EXPECT_TRUE(r.samples.empty());
}
