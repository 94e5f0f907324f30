// trace_check: replay a JSONL protocol trace (trace_dump's output, or a
// soak `soak-seg*-trace.jsonl` artifact) through trace::verify.
//
//   trace_check [FILE] [--bound SECONDS] [--no-release] [--mem-budget BYTES]
//   ./trace_dump --lossy | ./trace_check
//
// Reads stdin without FILE. The flags are trace::VerifyOptions' three
// fields, so an artifact replays under the chaos oracle's settings.
// Prints a one-line summary; violations go to stderr. Exits 0 on a
// clean trace, 1 on a violation, 2 on a usage error or malformed input.
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>

#include "trace/jsonl.hpp"
#include "trace/verify.hpp"

using namespace hrmc;

int main(int argc, char** argv) {
  const char* path = nullptr;
  trace::VerifyOptions opt;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string_view a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    char* end = nullptr;
    errno = 0;
    if (a == "--no-release") {
      opt.check_release = false;
    } else if (a == "--bound" && *v != '\0') {
      const double secs = std::strtod(v, &end);
      ok = *end == '\0' && secs >= 0 && secs <= 1e9;
      opt.nak_answer_bound = ok ? sim::from_seconds(secs) : 0;
      ++i;
    } else if (a == "--mem-budget" && *v != '\0') {
      opt.mem_budget = std::strtoull(v, &end, 10);
      ok = *end == '\0' && *v != '-' && errno == 0;
      ++i;
    } else {
      ok = path == nullptr && !a.starts_with("-");
      path = argv[i];
    }
  }
  if (!ok) {
    std::cerr << "usage: trace_check [FILE] [--bound SECONDS] [--no-release] "
                 "[--mem-budget BYTES]\n";
    return 2;
  }
  std::ifstream file;
  if (path != nullptr) {
    file.open(path);
    if (!file) {
      std::cerr << "trace_check: cannot open " << path << '\n';
      return 2;
    }
  }

  const trace::JsonlRead in = trace::read_jsonl(path ? file : std::cin);
  if (!in.error.empty()) {
    std::cerr << "trace_check: " << (path ? path : "stdin") << ": "
              << in.error << '\n';
    return 2;
  }
  const trace::VerifyResult v = trace::verify(in.records, opt);
  std::cout << "trace_check: " << in.records.size() << " records, "
            << v.releases_checked << " releases / " << v.naks_checked
            << " naks / " << v.sends_checked << " sends / "
            << v.progress_checked << " progress / " << v.mem_checked
            << " mem checked, " << v.violation_count << " violations\n";
  for (const std::string& s : v.violations) {
    std::cerr << "violation: " << s << '\n';
  }
  return v.ok ? 0 : 1;
}
