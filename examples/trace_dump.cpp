// trace_dump: run a scenario with the protocol tracer on and dump the
// event trace as JSONL to stdout, for examples/trace_check to replay:
//
//   ./trace_dump          | ./trace_check     # clean LAN run
//   ./trace_dump --lossy  | ./trace_check     # crash + flap + burst
//
// Exits non-zero if the transfer itself fails; checking the trace is
// trace_check's job.
#include <cstring>
#include <iostream>

#include "harness/scenario.hpp"
#include "trace/jsonl.hpp"

using namespace hrmc;
using namespace hrmc::harness;

int main(int argc, char** argv) {
  bool lossy = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lossy") == 0) {
      lossy = true;
    } else {
      std::cerr << "usage: trace_dump [--lossy]\n";
      return 2;
    }
  }

  Workload wl;
  wl.file_bytes = 4 * 1024 * 1024;
  Scenario sc = lan_scenario(3, 10e6, 256 * 1024, wl, 20260806);
  sc.name = lossy ? "trace_dump_lossy" : "trace_dump";
  sc.trace.enabled = true;
  sc.trace.sample_period = sim::milliseconds(100);
  if (lossy) {
    // One of everything the fault layer can do: a burst of correlated
    // loss early (while the sender is at full rate, so NAK/retransmit
    // traffic actually appears in the trace), then receiver 1's link
    // flaps, then receiver 2 crashes and restarts.
    net::GilbertElliottConfig ge;
    sc.faults.burst_loss(0, sim::seconds(1), ge)
        .burst_loss_stop(0, sim::milliseconds(2500))
        .link_down(1, sim::seconds(3))
        .link_up(1, sim::milliseconds(3400))
        .crash(2, sim::seconds(4))
        .restart(2, sim::milliseconds(5500));
  }

  RunResult r = run_transfer(sc);
  trace::write_jsonl(std::cout, r.trace_records);

  std::cerr << "trace_dump: " << sc.name << ": "
            << r.trace_records.size() << " records ("
            << r.trace_dropped << " dropped), " << r.samples.size()
            << " samples, completed=" << (r.completed ? 1 : 0) << '\n';
  if (!r.completed || r.any_stream_error || !r.verify_ok) {
    std::cerr << "trace_dump: transfer FAILED\n";
    return 1;
  }
  return 0;
}
