#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {

enum class Reduce : unsigned char { kMedian, kSum };

struct LayerSpec {
  std::string_view name;
  std::string_view unit;
  Reduce reduce;
};

// The per-layer ledger. Times are the median over the calls of one run
// (set-up calls included), counts of work are summed over the run unless
// they describe one call, and rates are medians over calls.
constexpr LayerSpec kLayers[] = {
    {"atlas.campaign_s", "s", Reduce::kMedian},
    {"atlas.bursts", "count", Reduce::kMedian},
    {"atlas.bursts_per_s", "1/s", Reduce::kMedian},
    {"atlas.campaign_ctor_s", "s", Reduce::kMedian},
    {"atlas.shard_max_s", "s", Reduce::kMedian},
    {"atlas.merge_s", "s", Reduce::kMedian},
    {"core.country_min_s", "s", Reduce::kMedian},
    {"core.per_probe_best_s", "s", Reduce::kMedian},
    {"core.continent_cdf_s", "s", Reduce::kMedian},
    {"core.access_s", "s", Reduce::kMedian},
    {"core.feasibility_s", "s", Reduce::kMedian},
    {"store.append_s", "s", Reduce::kMedian},
    {"store.append_rows", "count", Reduce::kSum},
    {"store.refresh_s", "s", Reduce::kMedian},
    {"store.refresh_calls", "count", Reduce::kSum},
    {"snapshot.save_s", "s", Reduce::kMedian},
    {"snapshot.bytes", "B", Reduce::kMedian},
    {"snapshot.load_s", "s", Reduce::kMedian},
    {"deltalog.publish_s", "s", Reduce::kMedian},
    {"deltalog.bytes", "B", Reduce::kMedian},
    {"deltalog.apply_s", "s", Reduce::kMedian},
    {"deltalog.segments", "count", Reduce::kMedian},
    {"oracle.batch_s", "s", Reduce::kMedian},
    {"oracle.queries_per_s", "1/s", Reduce::kMedian},
    {"oracle.queries_per_s_t4", "1/s", Reduce::kMedian},
    {"oracle.replay_s", "s", Reduce::kMedian},
    {"opt.candidates_s", "s", Reduce::kMedian},
    {"opt.candidates", "count", Reduce::kMedian},
    {"opt.search_build_s", "s", Reduce::kMedian},
    {"opt.plan_only_s", "s", Reduce::kMedian},
    {"opt.plan_sites", "count", Reduce::kMedian},
    {"opt.evaluate_s", "s", Reduce::kMedian},
    {"opt.affected_cells", "count", Reduce::kMedian},
    {"opt.coverage_s", "s", Reduce::kMedian},
    {"frame.encode_us", "us", Reduce::kMedian},
    {"frame.decode_us", "us", Reduce::kMedian},
    {"front.batches", "count", Reduce::kSum},
    {"front.queries_per_batch", "count", Reduce::kMedian},
    {"front.max_queue_depth", "count", Reduce::kMedian},
    {"front.shed", "count", Reduce::kSum},
    {"transport.polls", "count", Reduce::kSum},
    {"transport.poll_timeouts", "count", Reduce::kSum},
    {"transport.poll_idle_s", "s", Reduce::kSum},
    {"transport.bytes_in", "B", Reduce::kSum},
    {"transport.bytes_out", "B", Reduce::kSum},
    {"transport.partial_writes", "count", Reduce::kSum},
};

std::string span_name(std::string_view metric) {
  std::string name(metric);
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    name.resize(name.size() - 2);
  }
  return name;
}

}  // namespace

void Trace::sample(std::string_view metric, double value) {
  if (!on()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, values] : samples_) {
    if (name == metric) {
      values.push_back(value);
      return;
    }
  }
  samples_.emplace_back(std::string(metric), std::vector<double>{value});
}

void Trace::add_spans(std::vector<Span>&& spans) {
  if (!on()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

void Trace::add_span(Span span) {
  if (!on()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

Trace::Guard::Guard(Trace& t, std::string_view m)
    : trace(t),
      metric(m),
      id(t.next_id()),
      parent(t.stack_.empty() ? 0 : t.stack_.back()),
      start(Clock::now()) {
  trace.stack_.push_back(id);
}

Trace::Guard::~Guard() {
  const Clock::time_point end = Clock::now();
  trace.stack_.pop_back();
  trace.sample(metric, std::chrono::duration<double>(end - start).count());
  trace.add_span(Span{id, parent, 0, span_name(metric), trace.us_at(start),
                      trace.us_at(end)});
}

bool Trace::write_spans(const std::string& path) const {
  std::ofstream out(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << std::setprecision(12);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

std::size_t Trace::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Metrics Trace::layer_values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Metrics out;
  for (const LayerSpec& spec : kLayers) {
    const std::vector<double>* values = nullptr;
    for (const auto& [name, v] : samples_) {
      if (name == spec.name) values = &v;
    }
    double value = 0.0;
    if (values != nullptr && !values->empty()) {
      switch (spec.reduce) {
        case Reduce::kMedian: value = median(*values); break;
        case Reduce::kSum:
          for (double v : *values) value += v;
          break;
      }
    }
    out.emplace_back(std::string(spec.name),
                     std::make_pair(value, std::string(spec.unit)));
  }
  return out;
}

void Run::op(const std::string& why) {
  ++attempted;
  if (why.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Run::metric(const std::string& name, double value,
                 const std::string& unit) {
  e2e.emplace_back(name, std::make_pair(value, unit));
}

void Run::say(const std::string& line) { std::cout << line << '\n'; }

void report_common(Run& run, const std::vector<double>& setup_times) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::ostringstream line;
  line << std::setprecision(4) << "setup runs (s):";
  for (double t : setup_times) line << ' ' << t;
  Run::say(line.str());
  run.metric("setup_s", median(setup_times), "s");
  // ru_maxrss is in KiB on Linux.
  run.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MiB");
}

}  // namespace perfbench
