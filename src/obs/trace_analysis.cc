#include "obs/trace_analysis.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace dmrpc::obs {

namespace {

/// How many structural problems Check() describes verbatim before it
/// just counts; keeps reports readable on badly broken dumps.
constexpr size_t kMaxProblemDescriptions = 10;

// --- JSONL parsing ---------------------------------------------------------
// The trace parser accepts exactly what Tracer::WriteJsonLines emits (one
// flat object per line; string, integer, or object values), skipping
// unknown keys so the format can grow without breaking old analyzers.
// The timeline parser reads TimelineRecorder::ToJsonLines' fixed layout.

struct Cursor {
  const std::string& s;
  size_t i = 0;

  bool done() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  bool Eat(char c) {
    if (done() || s[i] != c) return false;
    ++i;
    return true;
  }
};

bool ParseString(Cursor* c, std::string* out) {
  if (!c->Eat('"')) return false;
  out->clear();
  while (!c->done()) {
    char ch = c->s[c->i++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c->done()) return false;
    char esc = c->s[c->i++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (c->i + 4 > c->s.size()) return false;
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
          char h = c->s[c->i++];
          v <<= 4;
          if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        // The tracer only \u-escapes control bytes; anything else is
        // replaced rather than decoded (analysis never needs it).
        out->push_back(v < 0x80 ? static_cast<char>(v) : '?');
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated
}

bool ParseInt(Cursor* c, int64_t* out) {
  bool neg = c->Eat('-');
  if (c->done() || c->peek() < '0' || c->peek() > '9') return false;
  uint64_t v = 0;
  while (!c->done() && c->peek() >= '0' && c->peek() <= '9') {
    v = v * 10 + static_cast<uint64_t>(c->s[c->i++] - '0');
  }
  *out = neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  return true;
}

/// Captures a balanced object/array (string-aware) as raw text.
bool ParseRawValue(Cursor* c, std::string* out) {
  size_t start = c->i;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  while (!c->done()) {
    char ch = c->s[c->i++];
    if (in_string) {
      if (escaped) escaped = false;
      else if (ch == '\\') escaped = true;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') {
      if (--depth == 0) {
        *out = c->s.substr(start, c->i - start);
        return true;
      }
      if (depth < 0) return false;
    }
  }
  return false;
}

/// Parses `{"key":value,...}`; `value(key)` must consume each value.
template <typename Fn>
bool ParseObject(Cursor* c, Fn&& value) {
  if (!c->Eat('{')) return false;
  if (c->Eat('}')) return true;
  do {
    std::string key;
    if (!ParseString(c, &key) || !c->Eat(':') || !value(key)) return false;
  } while (c->Eat(','));
  return c->Eat('}');
}

/// Matches `fmt` against the cursor: literal text must match exactly and
/// each '%' reads one integer into the next of `out`.
template <typename... Ints>
bool Scan(Cursor* c, std::string_view fmt, Ints*... out) {
  size_t pos = 0;
  auto literal = [&] {  // up to the next '%', or the end
    for (; pos < fmt.size() && fmt[pos] != '%'; ++pos) {
      if (!c->Eat(fmt[pos])) return false;
    }
    return true;
  };
  [[maybe_unused]] auto field = [&](auto* o) {
    int64_t v = 0;
    if (!literal() || !ParseInt(c, &v)) return false;
    ++pos;
    *o = static_cast<std::remove_pointer_t<decltype(o)>>(v);
    return true;
  };
  return (field(out) && ...) && literal();
}

/// One `.timeline.jsonl` window line, exactly as
/// TimelineRecorder::ToJsonLines writes it; `*index` gets its "window".
bool ParseTimelineWindow(Cursor* c, TimelineWindow* w, int64_t* index) {
  bool ok =
      Scan(c,
           "{\"window\":%,\"start_ns\":%,\"end_ns\":%,"
           "\"events_executed\":%,\"live_tasks\":%,\"counters\":",
           index, &w->start_ns, &w->end_ns, &w->events_executed,
           &w->live_tasks) &&
      ParseObject(c, [&](const std::string& name) {
        WindowCounter& v = w->counters[name];
        return Scan(c, "{\"total\":%,\"delta\":%}", &v.total, &v.delta);
      }) &&
      Scan(c, ",\"gauges\":") && ParseObject(c, [&](const std::string& name) {
        WindowGauge& v = w->gauges[name];
        return Scan(c, "{\"value\":%,\"max\":%}", &v.value, &v.max);
      }) &&
      Scan(c, ",\"timers\":") && ParseObject(c, [&](const std::string& name) {
        WindowTimer& v = w->timers[name];
        return Scan(c,
                    "{\"count\":%,\"sum\":%,\"p50\":%,\"p99\":%,"
                    "\"p999\":%,\"max\":%}",
                    &v.count, &v.sum, &v.p50, &v.p99, &v.p999, &v.max);
      }) &&
      Scan(c, ",\"slo\":[");
  if (!ok) return false;
  if (c->Eat(']')) return Scan(c, "}");
  do {
    WindowSlo& v = w->slo.emplace_back();
    if (!Scan(c, "{\"name\":") || !ParseString(c, &v.name) ||
        !Scan(c, ",\"bad\":%,\"total\":%,\"burn_milli\":%,\"breached\":%}",
              &v.bad, &v.total, &v.burn_milli, &v.breached)) {
      return false;
    }
  } while (c->Eat(','));
  return Scan(c, "]}");
}

// --- report formatting -----------------------------------------------------

std::string Percent(TimeNs part, TimeNs whole) {
  char buf[32];
  double pct = whole > 0 ? 100.0 * static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
  std::snprintf(buf, sizeof(buf), "%6.2f%%", pct);
  return buf;
}

void AppendAggregate(std::ostream& os, const std::string& label,
                     const BreakdownAggregate& agg) {
  os << "== latency breakdown (" << label << ") ==\n";
  os << "requests: " << agg.requests << "\n";
  if (agg.requests == 0) return;
  os << "latency ns: p50=" << agg.p50 << " p95=" << agg.p95
     << " p99=" << agg.p99 << " max=" << agg.max
     << " total=" << agg.total_latency << "\n";
  os << "wire_bytes: " << agg.wire_bytes
     << "  copied_bytes: " << agg.copied_bytes << "\n";
  os << "critical-path time by layer:\n";
  for (const auto& [cat, ns] : agg.by_layer) {
    os << "  " << cat;
    for (size_t i = cat.size(); i < 8; ++i) os << ' ';
    os << ns << " ns  " << Percent(ns, agg.total_latency) << "\n";
  }
  os << "critical-path time by hop (track):\n";
  for (const auto& [track, ns] : agg.by_hop) {
    os << "  track " << track << "  " << ns << " ns  "
       << Percent(ns, agg.total_latency) << "\n";
  }
}

}  // namespace

uint64_t TraceAnalysis::ArgValue(const std::string& args,
                                 const std::string& key, uint64_t fallback) {
  std::string needle = "\"" + key + "\":";
  size_t pos = args.find(needle);
  if (pos == std::string::npos) return fallback;
  pos += needle.size();
  if (pos >= args.size() || args[pos] < '0' || args[pos] > '9') {
    return fallback;
  }
  uint64_t v = 0;
  while (pos < args.size() && args[pos] >= '0' && args[pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(args[pos++] - '0');
  }
  return v;
}

void TraceAnalysis::AddRecords(const std::vector<TraceRecord>& records,
                               size_t dropped) {
  records_.insert(records_.end(), records.begin(), records.end());
  dropped_ += dropped;
  built_ = false;
}

bool TraceAnalysis::ParseJsonLines(std::istream& is, std::string* error) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    Cursor c{line};
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " + what;
      }
      return false;
    };
    if (!c.Eat('{')) return fail("expected object");
    TraceRecord rec;
    std::string ph;
    bool first = true;
    for (;;) {
      if (c.Eat('}')) break;
      if (!first && !c.Eat(',')) return fail("expected ','");
      first = false;
      std::string key;
      if (!ParseString(&c, &key)) return fail("expected key");
      if (!c.Eat(':')) return fail("expected ':'");
      if (c.done()) return fail("truncated line");
      if (c.peek() == '"') {
        std::string val;
        if (!ParseString(&c, &val)) return fail("bad string value");
        if (key == "ph") ph = val;
        else if (key == "cat") rec.cat = val;
        else if (key == "name") rec.name = val;
      } else if (c.peek() == '{' || c.peek() == '[') {
        std::string raw;
        if (!ParseRawValue(&c, &raw)) return fail("unbalanced value");
        if (key == "args") rec.args = raw;
      } else {
        int64_t v = 0;
        if (!ParseInt(&c, &v)) return fail("bad number");
        if (key == "ts") rec.time = v;
        else if (key == "id") rec.id = static_cast<uint64_t>(v);
        else if (key == "trace") rec.trace_id = static_cast<uint64_t>(v);
        else if (key == "parent") rec.parent_id = static_cast<uint64_t>(v);
        else if (key == "track") rec.track = static_cast<uint32_t>(v);
        else if (key == "depth") rec.depth = static_cast<uint32_t>(v);
      }
    }
    if (ph == "B") rec.phase = TracePhase::kSpanBegin;
    else if (ph == "E") rec.phase = TracePhase::kSpanEnd;
    else if (ph == "i") rec.phase = TracePhase::kInstant;
    else if (ph == "M") {
      if (rec.name == "trace_metadata") {
        dropped_ += ArgValue(rec.args, "dropped");
      }
      continue;  // metadata is not a record
    } else {
      return fail("unknown ph");
    }
    records_.push_back(std::move(rec));
  }
  built_ = false;
  return true;
}

void TraceAnalysis::Build() {
  spans_.clear();
  span_index_.clear();
  instants_ = 0;
  for (const TraceRecord& r : records_) {
    switch (r.phase) {
      case TracePhase::kSpanBegin: {
        SpanNode node;
        node.id = r.id;
        node.trace_id = r.trace_id;
        node.parent_id = r.parent_id;
        node.track = r.track;
        node.start = r.time;
        node.end = r.time;  // until the end record arrives
        node.cat = r.cat;
        node.name = r.name;
        node.args = r.args;
        span_index_.emplace(r.id, spans_.size());
        spans_.push_back(std::move(node));
        break;
      }
      case TracePhase::kSpanEnd: {
        auto it = span_index_.find(r.id);
        if (it == span_index_.end()) break;  // begin was dropped
        spans_[it->second].end = r.time;
        spans_[it->second].closed = true;
        break;
      }
      case TracePhase::kInstant:
        ++instants_;
        break;
    }
  }
  // Causal edges. A parent in a *different* trace is a structural bug
  // (reported by Check); such edges are excluded so tree walks stay
  // within one request.
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent_id == 0) continue;
    auto it = span_index_.find(spans_[i].parent_id);
    if (it == span_index_.end()) continue;  // orphan (reported by Check)
    if (spans_[it->second].trace_id != spans_[i].trace_id) continue;
    spans_[it->second].children.push_back(i);
  }
  built_ = true;
}

WellFormedness TraceAnalysis::Check() const {
  WellFormedness wf;
  wf.spans = spans_.size();
  wf.instants = instants_;
  wf.dropped = dropped_;
  auto note = [&wf](std::string msg) {
    if (wf.problems.size() < kMaxProblemDescriptions) {
      wf.problems.push_back(std::move(msg));
    }
  };
  if (dropped_ > 0) {
    note("trace truncated: " + std::to_string(dropped_) +
         " records dropped");
  }
  std::map<uint64_t, size_t> roots_per_trace;
  for (const SpanNode& s : spans_) {
    if (s.trace_id != 0) roots_per_trace.emplace(s.trace_id, 0);
    if (!s.closed) {
      ++wf.unclosed;
      note("span " + std::to_string(s.id) + " (" + s.name +
           ") never closed");
    }
    if (s.trace_id == 0) continue;  // background span: no tree checks
    if (s.parent_id == 0) {
      ++roots_per_trace[s.trace_id];
      continue;
    }
    auto it = span_index_.find(s.parent_id);
    if (it == span_index_.end()) {
      ++wf.orphans;
      note("span " + std::to_string(s.id) + " (" + s.name + ") parent " +
           std::to_string(s.parent_id) + " missing");
      continue;
    }
    const SpanNode& p = spans_[it->second];
    if (p.trace_id != s.trace_id) {
      ++wf.cross_trace;
      note("span " + std::to_string(s.id) + " in trace " +
           std::to_string(s.trace_id) + " but parent " +
           std::to_string(p.id) + " in trace " +
           std::to_string(p.trace_id));
      continue;
    }
    if (s.closed && p.closed && (s.start < p.start || s.end > p.end)) {
      if (s.start >= p.end) {
        // Detached continuation: spawned as the parent finished (e.g. a
        // deferred Ref release). Causally linked but intentionally off
        // the request path, so not a nesting violation.
        ++wf.async_children;
      } else {
        ++wf.interval_violations;
        note("span " + std::to_string(s.id) + " (" + s.name + ") [" +
             std::to_string(s.start) + "," + std::to_string(s.end) +
             "] outside parent " + std::to_string(p.id) + " [" +
             std::to_string(p.start) + "," + std::to_string(p.end) + "]");
      }
    }
  }
  wf.traces = roots_per_trace.size();
  for (const auto& [trace, roots] : roots_per_trace) {
    if (roots != 1) {
      ++wf.multi_root_traces;
      note("trace " + std::to_string(trace) + " has " +
           std::to_string(roots) + " roots");
    }
  }
  return wf;
}

void TraceAnalysis::AttributeCriticalPath(size_t idx, TimeNs end,
                                          TimeNs floor,
                                          RequestBreakdown* out) const {
  const SpanNode& s = spans_[idx];
  auto credit = [&](TimeNs ns) {
    if (ns <= 0) return;
    out->by_layer[s.cat] += ns;
    out->by_hop[s.track] += ns;
  };
  // Backward walk: at each instant the deepest span still running owns
  // the time. Children sorted by end time descending (id breaks ties
  // deterministically); the child finishing latest before the cursor is
  // the one on the critical path there.
  std::vector<size_t> kids = s.children;
  std::sort(kids.begin(), kids.end(), [this](size_t a, size_t b) {
    if (spans_[a].end != spans_[b].end) return spans_[a].end > spans_[b].end;
    return spans_[a].id > spans_[b].id;
  });
  TimeNs cur = end;
  for (size_t k : kids) {
    const SpanNode& c = spans_[k];
    if (!c.closed) continue;
    TimeNs c_end = std::min(c.end, cur);
    TimeNs c_start = std::max(c.start, floor);
    if (c_end <= floor) break;  // sorted: nothing later reaches the window
    if (c_start >= c_end) continue;  // zero width after clamping
    credit(cur - c_end);  // the parent ran alone in (c_end, cur]
    AttributeCriticalPath(k, c_end, c_start, out);
    cur = c_start;
    if (cur <= floor) return;
  }
  credit(cur - floor);
}

std::vector<RequestBreakdown> TraceAnalysis::Breakdowns() const {
  // Group spans per trace; breakdowns only for traces with exactly one
  // closed root (Check() reports everything else).
  std::map<uint64_t, std::vector<size_t>> by_trace;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].trace_id != 0) by_trace[spans_[i].trace_id].push_back(i);
  }
  std::vector<RequestBreakdown> out;
  for (const auto& [trace_id, members] : by_trace) {
    size_t root = spans_.size();
    size_t roots = 0;
    for (size_t i : members) {
      if (spans_[i].parent_id == 0) {
        root = i;
        ++roots;
      }
    }
    if (roots != 1 || !spans_[root].closed) continue;
    RequestBreakdown bd;
    bd.trace_id = trace_id;
    bd.latency = spans_[root].duration();
    bd.root_name = spans_[root].name;
    bd.root_args = spans_[root].args;
    for (size_t i : members) {
      const SpanNode& s = spans_[i];
      bd.copied_bytes += ArgValue(s.args, "copied");
      if (s.cat == "dmrpc" && ArgValue(s.args, "by_ref") == 1) {
        bd.by_ref = true;
      }
      if (s.name == "rpc.call") {
        bd.wire_bytes += ArgValue(s.args, "bytes");
        bd.wire_bytes += ArgValue(s.args, "resp_bytes");
      }
    }
    AttributeCriticalPath(root, spans_[root].end, spans_[root].start, &bd);
    out.push_back(std::move(bd));
  }
  return out;  // map iteration: already sorted by trace id
}

std::map<std::string, BreakdownAggregate> TraceAnalysis::Aggregate(
    const std::vector<RequestBreakdown>& breakdowns) {
  std::map<std::string, std::vector<const RequestBreakdown*>> groups;
  for (const RequestBreakdown& bd : breakdowns) {
    groups["all"].push_back(&bd);
    groups[bd.by_ref ? "by_ref" : "by_value"].push_back(&bd);
  }
  std::map<std::string, BreakdownAggregate> out;
  for (const auto& [label, group] : groups) {
    BreakdownAggregate agg;
    agg.requests = group.size();
    std::vector<TimeNs> lat;
    lat.reserve(group.size());
    for (const RequestBreakdown* bd : group) {
      lat.push_back(bd->latency);
      agg.total_latency += bd->latency;
      agg.wire_bytes += bd->wire_bytes;
      agg.copied_bytes += bd->copied_bytes;
      for (const auto& [cat, ns] : bd->by_layer) agg.by_layer[cat] += ns;
      for (const auto& [track, ns] : bd->by_hop) agg.by_hop[track] += ns;
    }
    std::sort(lat.begin(), lat.end());
    auto q = [&lat](size_t pct) {
      size_t idx = (lat.size() * pct) / 100;
      if (idx >= lat.size()) idx = lat.size() - 1;
      return lat[idx];
    };
    if (!lat.empty()) {
      agg.p50 = q(50);
      agg.p95 = q(95);
      agg.p99 = q(99);
      agg.max = lat.back();
    }
    out.emplace(label, std::move(agg));
  }
  return out;
}

std::string TraceAnalysis::TextReport() const {
  std::ostringstream os;
  WellFormedness wf = Check();
  os << "== trace well-formedness ==\n";
  os << "traces: " << wf.traces << "  spans: " << wf.spans
     << "  instants: " << wf.instants << "  dropped: " << wf.dropped << "\n";
  os << "unclosed: " << wf.unclosed << "  orphans: " << wf.orphans
     << "  cross_trace: " << wf.cross_trace
     << "  multi_root: " << wf.multi_root_traces
     << "  interval_violations: " << wf.interval_violations
     << "  async_children: " << wf.async_children << "\n";
  os << "status: " << (wf.ok() ? "OK" : "PROBLEMS") << "\n";
  for (const std::string& p : wf.problems) os << "  ! " << p << "\n";
  std::vector<RequestBreakdown> bds = Breakdowns();
  for (const auto& [label, agg] : Aggregate(bds)) {
    os << "\n";
    AppendAggregate(os, label, agg);
  }
  return os.str();
}

bool ParseTimelineJsonLines(std::istream& is,
                            std::vector<TimelineWindow>* windows,
                            std::string* error) {
  windows->clear();
  std::string line;
  size_t lineno = 0;
  int64_t expected = -1;  // the header's window count, once seen
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
  };
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    Cursor c{line};
    if (expected < 0) {
      int64_t interval = 0, dropped = 0;
      if (!Scan(&c,
                "{\"timeline\":{\"interval_ns\":%,\"windows\":%,"
                "\"dropped_windows\":%}}",
                &interval, &expected, &dropped) ||
          !c.done()) {
        return fail("expected the timeline header");
      }
      continue;
    }
    TimelineWindow w;
    int64_t index = -1;
    if (!ParseTimelineWindow(&c, &w, &index) || !c.done()) {
      return fail("malformed window");
    }
    if (index != static_cast<int64_t>(windows->size())) {
      return fail("window " + std::to_string(index) + " out of sequence");
    }
    windows->push_back(std::move(w));
  }
  if (expected < 0) return fail("missing the timeline header");
  if (static_cast<int64_t>(windows->size()) != expected) {
    return fail("header promises " + std::to_string(expected) +
                " windows, found " + std::to_string(windows->size()));
  }
  return true;
}

void WriteChromeTrace(std::ostream& os, const std::vector<TraceRecord>& records,
                      size_t dropped,
                      const std::vector<TimelineWindow>& windows) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  WriteChromeSpanEvents(os, records, &first);
  WriteChromeCounterEvents(os, windows, &first);
  if (!first) os << ",";
  os << "{\"pid\":0,\"tid\":0,\"ph\":\"M\",\"name\":\"trace_metadata\","
        "\"args\":{\"dropped\":"
     << dropped << "}}]}\n";
}

}  // namespace dmrpc::obs
