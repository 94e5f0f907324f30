// JSONL form of a trace: one object per line, kinds as stable names.
// write_jsonl dumps a run (examples/trace_dump, soak artifacts) and
// read_jsonl reads it back, so `trace_dump | trace_check` replays a
// trace through trace::verify without a shared binary format.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace hrmc::trace {

/// Writes one JSON object per record:
///   {"t":12340000,"host":1,"kind":"nak","seq_begin":1460,
///    "seq_end":2920,"value":1460,"aux":0,"flags":0}
void write_jsonl(std::ostream& os, const std::vector<TraceRecord>& records);

/// What read_jsonl found: the records, or (error non-empty) why the
/// input is not a trace, as "line N: what" with N 1-based.
struct JsonlRead {
  std::vector<TraceRecord> records;
  std::string error;
};

/// Inverse of write_jsonl. Keys may come in any order, blank lines are
/// skipped, and anything else is an error: a missing, unknown or
/// repeated key, an unknown kind, a non-integer value, a value out of
/// range for its field, or bytes after the object.
JsonlRead read_jsonl(std::istream& is);

}  // namespace hrmc::trace
