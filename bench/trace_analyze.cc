// Command-line front end of obs::TraceAnalysis.
//
// Usage: trace_analyze [--check] [--csv] <trace.jsonl>...
//        trace_analyze --chrome <run.trace.jsonl> [<run.timeline.jsonl>]
//
// Reads one or more JSONL trace dumps (the .trace.jsonl sidecars written
// by bench binaries under DMRPC_TRACE_DIR, or Tracer::WriteJsonLines
// output) and prints the span-tree well-formedness summary plus the
// critical-path latency breakdown for each file.
//
// With --check the tool exits nonzero unless every dump is structurally
// sound: no dropped records, every begun span closed, every span's
// parent present in the same trace, exactly one root per trace, child
// intervals nested inside their parents, and every per-request breakdown
// summing exactly to that request's end-to-end latency. CI runs this
// over the fig05 traces on every push.
//
// With --csv the human-readable report is replaced by one CSV table on
// stdout -- the BreakdownAggregate rows (group x layer, with the group's
// request count, latency quantiles, and the layer's critical-path time),
// ready for a spreadsheet or pandas:
//
//   file,group,layer,requests,p50_ns,p95_ns,p99_ns,max_ns,layer_ns
//
// With --chrome the report is replaced by one Chrome/Perfetto file on
// stdout: the run's spans and instants, plus the counter tracks of its
// .timeline.jsonl sidecar when given. Unreadable input exits 2.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace_analysis.h"

namespace {

constexpr char kUsage[] =
    "usage: trace_analyze [--check] [--csv] <trace.jsonl>...\n"
    "       trace_analyze --chrome <run.trace.jsonl> [<run.timeline.jsonl>]\n";

/// Opens `path` and runs `parse(stream, &error)`; false (said on stderr)
/// when either fails.
template <typename Parse>
bool ReadFile(const std::string& path, Parse&& parse) {
  std::ifstream in(path);
  std::string error;
  if (!in) {
    std::fprintf(stderr, "trace_analyze: cannot open %s\n", path.c_str());
    return false;
  }
  if (!parse(in, &error)) {
    std::fprintf(stderr, "trace_analyze: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int PrintChrome(const std::vector<std::string>& files) {
  dmrpc::obs::TraceAnalysis analysis;
  std::vector<dmrpc::obs::TimelineWindow> windows;
  bool ok = ReadFile(files[0], [&](std::istream& in, std::string* error) {
    return analysis.ParseJsonLines(in, error);
  });
  ok = ok && (files.size() == 1 ||
              ReadFile(files[1], [&](std::istream& in, std::string* error) {
                return dmrpc::obs::ParseTimelineJsonLines(in, &windows, error);
              }));
  if (!ok) return 2;
  dmrpc::obs::WriteChromeTrace(std::cout, analysis.records(),
                               analysis.dropped(), windows);
  return 0;
}

/// One CSV row per (group, layer): the group's aggregate quantiles repeat
/// on every row of the group, so each row is self-contained.
void PrintCsv(const std::string& path,
              const dmrpc::obs::TraceAnalysis& analysis) {
  auto aggregates = dmrpc::obs::TraceAnalysis::Aggregate(analysis.Breakdowns());
  for (const auto& [group, agg] : aggregates) {
    if (agg.requests == 0) continue;
    for (const auto& [layer, ns] : agg.by_layer) {
      std::printf("%s,%s,%s,%zu,%lld,%lld,%lld,%lld,%lld\n", path.c_str(),
                  group.c_str(), layer.c_str(), agg.requests,
                  static_cast<long long>(agg.p50),
                  static_cast<long long>(agg.p95),
                  static_cast<long long>(agg.p99),
                  static_cast<long long>(agg.max), static_cast<long long>(ns));
    }
  }
}

int AnalyzeFile(const std::string& path, bool check, bool csv) {
  dmrpc::obs::TraceAnalysis analysis;
  if (!ReadFile(path, [&](std::istream& in, std::string* error) {
        return analysis.ParseJsonLines(in, error);
      })) {
    return 2;
  }
  analysis.Build();
  if (csv) {
    PrintCsv(path, analysis);
  } else {
    std::printf("==== %s ====\n%s", path.c_str(),
                analysis.TextReport().c_str());
  }

  int rc = 0;
  if (check) {
    dmrpc::obs::WellFormedness wf = analysis.Check();
    if (!wf.ok()) {
      std::fprintf(stderr, "trace_analyze: %s: span forest not well-formed\n",
                   path.c_str());
      rc = 1;
    }
    // The accounting invariant behind every number in the report: the
    // per-layer critical-path times of a request partition its root
    // span, so they must sum to the end-to-end latency exactly.
    for (const dmrpc::obs::RequestBreakdown& bd : analysis.Breakdowns()) {
      dmrpc::TimeNs sum = 0;
      for (const auto& [cat, ns] : bd.by_layer) sum += ns;
      dmrpc::TimeNs hop_sum = 0;
      for (const auto& [track, ns] : bd.by_hop) hop_sum += ns;
      if (sum != bd.latency || hop_sum != bd.latency) {
        std::fprintf(stderr,
                     "trace_analyze: %s: trace %llu breakdown sums "
                     "(layer=%lld, hop=%lld) != latency %lld\n",
                     path.c_str(),
                     static_cast<unsigned long long>(bd.trace_id),
                     static_cast<long long>(sum),
                     static_cast<long long>(hop_sum),
                     static_cast<long long>(bd.latency));
        rc = 1;
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool csv = false;
  bool chrome = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty() || (chrome && (check || csv || files.size() > 2))) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (chrome) return PrintChrome(files);
  int rc = 0;
  if (csv) {
    std::printf("file,group,layer,requests,p50_ns,p95_ns,p99_ns,max_ns,"
                "layer_ns\n");
  }
  for (const std::string& f : files) {
    int file_rc = AnalyzeFile(f, check, csv);
    if (file_rc > rc) rc = file_rc;
  }
  if (check && rc == 0 && !csv) {
    std::printf("trace_analyze: all %zu file(s) well-formed\n", files.size());
  }
  return rc;
}
