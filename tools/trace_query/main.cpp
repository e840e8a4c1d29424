// trace_query — queries over a vhadoop span-graph JSON file.
//
// Usage:
//   trace_query <spans.json> [--validate] [--critical-path[=<job>]]
//               [--slowest-tasks=N] [--attribution]
//
//   --validate            structural checks (acyclic cause graph, no orphan
//                         edges, proper lane nesting); exit 1 on problems
//   --critical-path[=J]   per-job critical path as vhadoop-critpath-v1 JSON
//                         (J = job id or name; omitted/all = every job)
//   --slowest-tasks=N     the N longest task attempts (N a whole non-negative
//                         number; anything else exits 2 before the file is read)
//   --attribution         per-job makespan attribution table
//
// Flags run in the order listed above; with no flags, --validate runs.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "trace_query/query.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_query <spans.json> [--validate] [--critical-path[=<job>]] "
               "[--slowest-tasks=N] [--attribution]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool do_validate = false;
  bool do_critpath = false;
  std::string critpath_job;
  long slowest_n = -1;
  bool do_attribution = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      do_validate = true;
    } else if (arg == "--critical-path" || arg.rfind("--critical-path=", 0) == 0) {
      do_critpath = true;
      if (arg.size() > std::strlen("--critical-path")) {
        critpath_job = arg.substr(std::strlen("--critical-path="));
      }
    } else if (arg.rfind("--slowest-tasks=", 0) == 0) {
      const std::string text = arg.substr(std::strlen("--slowest-tasks="));
      const char* last = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), last, slowest_n);
      if (ec != std::errc{} || ptr != last || slowest_n < 0) {
        std::fprintf(stderr, "trace_query: --slowest-tasks needs a non-negative number, got '%s'\n",
                     text.c_str());
        return usage();
      }
    } else if (arg == "--attribution") {
      do_attribution = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (!do_validate && !do_critpath && slowest_n < 0 && !do_attribution) do_validate = true;

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "trace_query: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  try {
    const vhadoop::obs::SpanGraph g = vhadoop::tracequery::load_span_graph(buf.str());

    if (do_validate) {
      const auto problems = vhadoop::tracequery::validate(g);
      if (!problems.empty()) {
        for (const std::string& p : problems) std::fprintf(stderr, "INVALID: %s\n", p.c_str());
        return 1;
      }
      std::printf("OK: %zu spans, %zu cause edges; acyclic, properly nested\n",
                  g.spans.size(), g.edges.size());
    }
    if (do_critpath) {
      const auto jobs = vhadoop::tracequery::critical_paths(g, critpath_job);
      if (!critpath_job.empty() && critpath_job != "all" && jobs.empty()) {
        std::fprintf(stderr, "trace_query: no job matches '%s'\n", critpath_job.c_str());
        return 1;
      }
      std::printf("%s\n", vhadoop::obs::critical_paths_to_json(jobs).c_str());
    }
    if (slowest_n >= 0) {
      const auto rows =
          vhadoop::tracequery::slowest_tasks(g, static_cast<std::size_t>(slowest_n));
      for (const auto& r : rows) {
        std::printf("%-16s job=%llu vm=%d slot=%d %12.6fs\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.job), r.pid, r.tid, r.seconds());
      }
    }
    if (do_attribution) {
      const auto jobs = vhadoop::tracequery::critical_paths(g, "");
      std::printf("%s", vhadoop::tracequery::attribution_report(jobs).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_query: %s\n", e.what());
    return 2;
  }
  return 0;
}
