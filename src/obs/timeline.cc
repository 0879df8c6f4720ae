#include "obs/timeline.h"

#include <utility>

#include "common/logging.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace dmrpc::obs {

void TimelineRecorder::Configure(const TimelineConfig& cfg, TimeNs anchor) {
  DMRPC_CHECK_GE(cfg.interval_ns, 0) << "negative timeline interval";
  interval_ns_ = cfg.interval_ns;
  max_windows_ = cfg.max_windows;
  if (interval_ns_ == 0) {
    next_boundary_ = std::numeric_limits<TimeNs>::max();
    return;
  }
  DMRPC_CHECK_LE(interval_ns_,
                 std::numeric_limits<TimeNs>::max() - anchor)
      << "timeline interval overflows the virtual clock";
  next_boundary_ = anchor + interval_ns_;
}

void TimelineRecorder::Clear() {
  windows_.clear();
  dropped_windows_ = 0;
  prev_counters_.clear();
  prev_timers_.clear();
}

void TimelineRecorder::SampleUpTo(TimeNs t, const MetricsRegistry& reg,
                                  uint64_t events_executed,
                                  int64_t live_tasks, SloMonitor* slo,
                                  Tracer* tracer) {
  while (next_boundary_ <= t) {
    SampleOne(next_boundary_, reg, events_executed, live_tasks, slo, tracer);
    // Overflow-safe advance; a boundary past the clock's range ends the
    // grid (no event can ever reach it).
    if (next_boundary_ >
        std::numeric_limits<TimeNs>::max() - interval_ns_) {
      next_boundary_ = std::numeric_limits<TimeNs>::max();
      return;
    }
    next_boundary_ += interval_ns_;
  }
}

void TimelineRecorder::SampleOne(TimeNs boundary, const MetricsRegistry& reg,
                                 uint64_t events_executed, int64_t live_tasks,
                                 SloMonitor* slo, Tracer* tracer) {
  if (windows_.size() >= max_windows_) {
    ++dropped_windows_;
    return;
  }
  TimelineWindow w;
  w.start_ns = boundary - interval_ns_;
  w.end_ns = boundary;
  w.events_executed = events_executed;
  w.live_tasks = live_tasks;

  // Latency objectives need the window's full sketch, not just its
  // summary; collect those (and only those) while diffing.
  std::map<std::string, Histogram> window_sketches;

  reg.ForEachCounter([&](const std::string& name, const Counter& c) {
    WindowCounter wc;
    wc.total = c.value();
    uint64_t& prev = prev_counters_[name];
    DMRPC_CHECK_GE(wc.total, prev) << "counter " << name << " went backwards";
    wc.delta = wc.total - prev;
    prev = wc.total;
    w.counters.emplace(name, wc);
  });
  reg.ForEachGauge([&](const std::string& name, const Gauge& g) {
    w.gauges.emplace(name, WindowGauge{g.value(), g.max()});
  });
  reg.ForEachTimer([&](const std::string& name, const Timer& t) {
    auto it = prev_timers_.find(name);
    Histogram diff;
    if (it == prev_timers_.end()) {
      diff = t.hist();  // first window containing this timer
    } else {
      diff = t.hist().Diff(it->second);
    }
    WindowTimer wt;
    wt.count = diff.count();
    wt.sum = diff.sum();
    wt.p50 = diff.p50();
    wt.p99 = diff.p99();
    wt.p999 = diff.p999();
    wt.max = diff.max();
    w.timers.emplace(name, wt);
    if (slo != nullptr && slo->armed()) {
      for (const SloObjective& obj : slo->objectives()) {
        if (obj.kind == SloObjective::Kind::kLatency && obj.timer == name) {
          window_sketches.emplace(name, std::move(diff));
          break;
        }
      }
    }
    prev_timers_[name] = t.hist();  // snapshot for the next boundary
  });

  if (slo != nullptr && slo->armed()) {
    slo->Evaluate(&w, window_sketches, tracer);
  }
  windows_.push_back(std::move(w));
}

namespace {

/// Appends `s` as a JSON string literal. Metric and objective names are
/// plain identifiers; quoting the two structural characters keeps a
/// stray one from breaking the line.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string TimelineRecorder::ToJsonLines() const {
  std::string out;
  out.reserve(256 + windows_.size() * 512);
  // Header line: grid parameters plus the drop count, so a consumer can
  // tell a complete sidecar from a capped one.
  out += "{\"timeline\":{\"interval_ns\":" + std::to_string(interval_ns_);
  out += ",\"windows\":" + std::to_string(windows_.size());
  out += ",\"dropped_windows\":" + std::to_string(dropped_windows_);
  out += "}}\n";
  for (size_t i = 0; i < windows_.size(); ++i) {
    const TimelineWindow& w = windows_[i];
    out += "{\"window\":" + std::to_string(i);
    out += ",\"start_ns\":" + std::to_string(w.start_ns);
    out += ",\"end_ns\":" + std::to_string(w.end_ns);
    out += ",\"events_executed\":" + std::to_string(w.events_executed);
    out += ",\"live_tasks\":" + std::to_string(w.live_tasks);
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : w.counters) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(&out, name);
      out += ":{\"total\":" + std::to_string(c.total);
      out += ",\"delta\":" + std::to_string(c.delta) + "}";
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : w.gauges) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(&out, name);
      out += ":{\"value\":" + std::to_string(g.value);
      out += ",\"max\":" + std::to_string(g.max) + "}";
    }
    out += "},\"timers\":{";
    first = true;
    for (const auto& [name, t] : w.timers) {
      if (!first) out += ",";
      first = false;
      AppendJsonString(&out, name);
      out += ":{\"count\":" + std::to_string(t.count);
      out += ",\"sum\":" + std::to_string(t.sum);
      out += ",\"p50\":" + std::to_string(t.p50);
      out += ",\"p99\":" + std::to_string(t.p99);
      out += ",\"p999\":" + std::to_string(t.p999);
      out += ",\"max\":" + std::to_string(t.max) + "}";
    }
    out += "},\"slo\":[";
    for (size_t s = 0; s < w.slo.size(); ++s) {
      const WindowSlo& v = w.slo[s];
      if (s > 0) out += ",";
      out += "{\"name\":";
      AppendJsonString(&out, v.name);
      out += ",\"bad\":" + std::to_string(v.bad);
      out += ",\"total\":" + std::to_string(v.total);
      out += ",\"burn_milli\":" + std::to_string(v.burn_milli);
      out += ",\"breached\":" + std::string(v.breached ? "1" : "0") + "}";
    }
    out += "]}\n";
  }
  return out;
}

void WriteChromeCounterEvents(std::ostream& os,
                              const std::vector<TimelineWindow>& windows,
                              bool* first) {
  std::string ev;
  auto emit = [&](const std::string& name, TimeNs ts_ns, int64_t value) {
    // trace_event counter phase; ts is microseconds in the viewer.
    ev = *first ? "{\"name\":" : ",{\"name\":";
    *first = false;
    AppendJsonString(&ev, name);
    ev += ",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" +
          std::to_string(ts_ns / 1000) +
          ",\"args\":{\"value\":" + std::to_string(value) + "}}";
    os << ev;
  };
  for (const TimelineWindow& w : windows) {
    for (const auto& [name, c] : w.counters) {
      if (c.delta == 0 && c.total == 0) continue;  // all-quiet series
      emit(name + ".rate", w.end_ns, static_cast<int64_t>(c.delta));
    }
    for (const auto& [name, g] : w.gauges) {
      if (g.value == 0 && g.max == 0) continue;
      emit(name, w.end_ns, g.value);
    }
    for (const auto& [name, t] : w.timers) {
      if (t.count == 0) continue;
      emit(name + ".p99", w.end_ns, t.p99);
    }
    for (const WindowSlo& v : w.slo) {
      emit("slo." + v.name + ".burn_milli", w.end_ns, v.burn_milli);
    }
  }
}

}  // namespace dmrpc::obs
