// rmibench: the RMI runtime benchmark, on both clocks.
//
//   rmibench --workload list_sync|superopt_stream|webserver_pages
//            --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--dump-counters]
//
// Every round runs the paper's five-level sweep (class, site, site + cycle,
// site + reuse, site + reuse + cycle) on a fresh 2-machine Sim cluster per
// level, and rounds repeat until the next one would overrun --seconds (at
// least one round always runs).
//
// --trace 0 prints the end-to-end metrics: host set-up time (the median of
// set-up-only sweeps run after the timed rounds), RMI throughput and host
// per-invoke latency p50/p90 (each the median over rounds of the round's
// value, its five levels pooled), the paper's virtual us per RMI per level,
// the share of calls that completed correctly and the peak heap a level
// holds during its call loop (median over rounds).
//
// --trace 1 alternates untraced and traced rounds (a trace::MemoryRecorder
// on the cluster and the pass manager), folds the recorded events into the
// per-layer metrics, writes a Chrome trace of the first traced `class`
// level to --trace-out, cross-checks every level against the repository's
// app runner at the same configuration, and checks that tracing moved
// neither the virtual clock nor a counter.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with `attempted` the invokes issued (the host latency sample count).
// --dump-counters prints, before it, one line "counters {...}" holding
// every deterministic per-level value, for bit-for-bit comparisons.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "trace/recorder.hpp"
#include "workloads.hpp"

namespace {

using namespace rmibench;
using rmiopt::apps::RunResult;
using Clock = std::chrono::steady_clock;

// At most this many events go into the Chrome trace: a superoptimizer
// level records about 400k, far more than a trace viewer needs.
constexpr std::size_t kTraceEventCap = 100'000;
// Set-up-only sweeps behind setup_s.
constexpr int kSetupSweeps = 101;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Trace events of one traced level, folded to per-call sums.
struct Fold {
  double ser_real_ns = 0, deser_real_ns = 0;
  double ser_virt_ns = 0, deser_virt_ns = 0;
  double call_virt_ns = 0;
  std::uint64_t call_spans = 0;
  double flight_virt_ns = 0;
};

Fold fold(const std::vector<rmiopt::trace::Event>& events,
          const std::vector<std::uint32_t>& sites) {
  using rmiopt::trace::EventKind;
  Fold f;
  for (const auto& e : events) {
    const bool mine =
        std::find(sites.begin(), sites.end(), e.callsite) != sites.end();
    switch (e.kind) {
      case EventKind::Serialize:
        if (mine) {
          f.ser_real_ns += static_cast<double>(e.real_ns);
          f.ser_virt_ns += static_cast<double>(e.dur_ns);
        }
        break;
      case EventKind::Deserialize:
        if (mine) {
          f.deser_real_ns += static_cast<double>(e.real_ns);
          f.deser_virt_ns += static_cast<double>(e.dur_ns);
        }
        break;
      case EventKind::Call:
        if (mine) {
          f.call_virt_ns += static_cast<double>(e.dur_ns);
          ++f.call_spans;
        }
        break;
      case EventKind::Flight:
        f.flight_virt_ns += static_cast<double>(e.dur_ns);
        break;
      default:
        break;
    }
  }
  return f;
}

struct Round {
  std::vector<LevelRun> levels;
  std::vector<Fold> folds;  // traced rounds only, one per level
  rmiopt::driver::CompileStats compile;  // the sweep's pass manager, total
  bool traced = false;
};

struct Options {
  Workload workload = Workload::ListSync;
  Params params;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool dump_counters = false;
};

// Moves the calling thread onto the next CPU it may use, in turn, then
// lifts the pin again.  The thread stays where it was put until the
// scheduler moves it; threads it starts later inherit the full CPU set.
// Starting each level on the next CPU spreads the driving thread over
// every vCPU, so a run's timings do not follow the load on the one vCPU
// the scheduler first placed it on.
void rotate_cpu() {
  static std::size_t turn = 0;  // only the main thread rotates
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  int k = static_cast<int>(turn++ % static_cast<std::size_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      sched_setaffinity(0, sizeof allowed, &allowed);
    }
    return;
  }
}

// Runs one five-level sweep; a traced sweep records into `rec` and folds
// each level's events (the first traced class level is also written as a
// Chrome trace when `trace_out` is non-empty).
Round run_round(const Options& o, rmiopt::trace::MemoryRecorder* rec,
                bool setup_only, std::string* trace_out) {
  Round round;
  round.traced = rec != nullptr;
  Sweep sweep(o.workload, rec);
  for (OptLevel level : rmiopt::codegen::kPaperLevels) {
    if (!setup_only) rotate_cpu();
    LevelRun run = run_level(o.workload, level, o.params, sweep, rec,
                             setup_only);
    if (rec != nullptr) {
      std::vector<rmiopt::trace::Event> events = rec->events();
      rec->clear();
      round.folds.push_back(fold(events, run.sites));
      if (trace_out != nullptr && !trace_out->empty()) {
        if (events.size() > kTraceEventCap) events.resize(kTraceEventCap);
        std::ofstream(*trace_out) << rmiopt::trace::chrome_trace_json(events);
        trace_out->clear();  // only the first traced class level
      }
    }
    round.levels.push_back(std::move(run));
  }
  round.compile = sweep.pm.stats();
  return round;
}

// Host set-up time of one sweep (its five levels' set-up summed): the
// median of `sweeps` set-up-only sweeps, each with a fresh pass manager.
// The timed rounds are too few on a slow workload to give a steady median.
double setup_seconds(const Options& o, int sweeps) {
  std::vector<double> v;
  for (int i = 0; i < sweeps; ++i) {
    double sum = 0;
    for (const LevelRun& l : run_round(o, nullptr, true, nullptr).levels) {
      sum += l.setup_s;
    }
    v.push_back(sum);
  }
  return median(v);
}

// ---- checks ----------------------------------------------------------------

struct Verdict {
  bool correct = true;
  void fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "rmibench: FAIL: %s\n", why.c_str());
    correct = false;
  }
};

// The counters every healthy run reproduces exactly, whatever the thread
// schedule: traffic volume, the serializers' event counts and the
// deserializers' allocations and reuse.
bool same_traffic(const RunResult& a, const RunResult& b) {
  const auto& sa = a.total.serial;
  const auto& sb = b.total.serial;
  return a.total.remote_rpcs == b.total.remote_rpcs &&
         a.messages == b.messages && a.bytes == b.bytes &&
         sa.cycle_lookups == sb.cycle_lookups &&
         sa.serializer_invocations == sb.serializer_invocations &&
         sa.objects_allocated == sb.objects_allocated &&
         sa.objects_reused == sb.objects_reused;
}

// Bit-for-bit equality of everything the simulation computes: the virtual
// makespan, every RMI and serializer counter, every network counter.
bool same_simulation(const RunResult& a, const RunResult& b) {
  return a.makespan == b.makespan && a.total == b.total && a.net == b.net;
}

// True when the workload's virtual clock is independent of the thread
// schedule.  The webserver's two client pipelines share the caller's
// clock, so its makespan depends on scheduling.
bool deterministic(Workload w) { return w != Workload::WebserverPages; }

void check_outputs(const std::vector<Round>& rounds, Verdict& v) {
  for (const Round& r : rounds) {
    for (const LevelRun& l : r.levels) {
      if (!l.check_error.empty()) v.fail(l.check_error);
      if (l.failed > 0) {
        v.fail(std::to_string(l.failed) + " failed calls at " +
               std::string(rmiopt::codegen::to_string(l.level)));
      }
    }
  }
}

// Every round must reproduce the first one's simulation: exactly for a
// deterministic workload, in traffic for the webserver.  Covers traced
// against untraced rounds too — tracing never moves the simulation.
void check_repeatable(const Options& o, const std::vector<Round>& rounds,
                      Verdict& v) {
  for (const Round& r : rounds) {
    for (std::size_t i = 0; i < r.levels.size(); ++i) {
      const RunResult& a = rounds.front().levels[i].result;
      const RunResult& b = r.levels[i].result;
      const bool same = deterministic(o.workload) ? same_simulation(a, b)
                                                  : same_traffic(a, b);
      if (!same) {
        v.fail(std::string(r.traced ? "traced" : "untraced") +
               " round diverged from the first at " +
               std::string(rmiopt::codegen::to_string(r.levels[i].level)));
      }
    }
  }
}

// The benchmark's drivers must not drift from the app runners: the same
// config gives the same counters (and, when deterministic, the same
// virtual makespan and every counter).
void cross_check_apps(const Options& o, const Round& mine, Verdict& v) {
  Sweep sweep(o.workload, nullptr);
  for (const LevelRun& l : mine.levels) {
    const RunResult app = run_app(o.workload, l.level, o.params, sweep);
    const RunResult& r = l.result;
    bool same = same_traffic(app, r) && app.net.frames == r.net.frames;
    if (deterministic(o.workload)) same = same && same_simulation(app, r);
    if (!same) {
      v.fail("driver diverged from the app runner at " +
             std::string(rmiopt::codegen::to_string(l.level)));
    }
  }
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double virt_us_per_rmi(const LevelRun& l) {
  return per(l.result.makespan.as_micros(), static_cast<double>(l.calls));
}

// Per-level median over rounds of f(level run).
template <typename F>
double level_median(const std::vector<const Round*>& rounds, std::size_t i,
                    F f) {
  std::vector<double> v;
  for (const Round* r : rounds) v.push_back(f(r->levels[i]));
  return median(v);
}

void end_to_end(const std::vector<const Round*>& timed, double setup_s,
                std::uint64_t attempted, std::uint64_t failed,
                std::vector<Metric>& out) {
  // Host timings are medians over rounds of each round's value (its five
  // levels pooled), so a burst of load from outside hits one round, not
  // the metric.
  std::vector<double> rate, p50, p90;
  for (const Round* r : timed) {
    std::vector<float> samples;
    double loop_s = 0;
    std::uint64_t completed = 0;
    for (const LevelRun& l : r->levels) {
      samples.insert(samples.end(), l.invoke_us.begin(), l.invoke_us.end());
      loop_s += l.loop_s;
      completed += l.calls - l.failed;
    }
    rate.push_back(per(static_cast<double>(completed), loop_s));
    p50.push_back(percentile(samples, 0.50));
    p90.push_back(percentile(samples, 0.90));
    std::fprintf(stderr, "  round %zu: %.0f rmi/s, p50 %.2f us, p90 %.2f us\n",
                 rate.size(), rate.back(), p50.back(), p90.back());
  }
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"rmi_per_s", median(rate), "1/s"});
  out.push_back({"wall_us_p50", median(p50), "us"});
  out.push_back({"wall_us_p90", median(p90), "us"});
  for (std::size_t i = 0; i < timed.front()->levels.size(); ++i) {
    out.push_back(
        {"virt_us_per_rmi." +
             std::string(level_suffix(timed.front()->levels[i].level)),
         level_median(timed, i, virt_us_per_rmi), "virt_us"});
  }
  out.push_back({"ok_frac",
                 1.0 - per(static_cast<double>(std::min(failed, attempted)),
                           static_cast<double>(attempted)),
                 "frac"});
  // Each round's peak is its largest level's; the metric is their median.
  std::vector<double> heap_mb;
  for (const Round* r : timed) {
    double peak = 0;
    for (const LevelRun& l : r->levels) peak = std::max(peak, l.heap_mb);
    heap_mb.push_back(peak);
  }
  out.push_back({"peak_heap_mb", median(heap_mb), "MiB"});
}

void per_layer(const std::vector<const Round*>& untraced,
               const std::vector<const Round*>& traced,
               std::vector<Metric>& out) {
  const Round& first = *traced.front();
  std::vector<double> start_stop;
  double loop_u = 0, loop_t = 0;
  for (const Round* r : untraced) {
    for (const LevelRun& l : r->levels) {
      start_stop.push_back(l.start_stop_s * 1e6);
      loop_u += l.loop_s;
    }
  }
  for (const Round* r : traced) {
    for (const LevelRun& l : r->levels) loop_t += l.loop_s;
  }

  for (std::size_t i = 0; i < first.levels.size(); ++i) {
    std::string sfx = ".";
    sfx += level_suffix(first.levels[i].level);
    auto add = [&](const std::string& name, double value, const char* unit) {
      out.push_back({name + sfx, value, unit});
    };
    // Host time: untraced invoke latency; traced per-call split.
    std::vector<float> wall;
    for (const Round* r : untraced) {
      wall.insert(wall.end(), r->levels[i].invoke_us.begin(),
                  r->levels[i].invoke_us.end());
    }
    double t_calls = 0, t_wall_us = 0, ser_real = 0, deser_real = 0;
    for (const Round* r : traced) {
      const LevelRun& l = r->levels[i];
      t_calls += static_cast<double>(l.calls);
      for (float us : l.invoke_us) t_wall_us += us;
      ser_real += r->folds[i].ser_real_ns;
      deser_real += r->folds[i].deser_real_ns;
    }
    const double ser_us = per(ser_real / 1e3, t_calls);
    const double deser_us = per(deser_real / 1e3, t_calls);
    add("rmi.invoke_wall_us_p50", percentile(wall, 0.50), "us");
    add("rmi.unattributed_wall_us", per(t_wall_us, t_calls) - ser_us - deser_us,
        "us");

    // Virtual time and counters, from the first traced round (every round
    // repeats them, bar the webserver's scheduling-dependent clock).
    const LevelRun& l = first.levels[i];
    const Fold& f = first.folds[i];
    const double calls = static_cast<double>(l.calls);
    const auto& s = l.site_stats.serial;
    const auto& n = l.result.net;
    add("rmi.call_virt_us", per(f.call_virt_ns / 1e3,
                                static_cast<double>(f.call_spans)),
        "virt_us");
    add("serial.serialize_real_us", ser_us, "us");
    add("serial.deserialize_real_us", deser_us, "us");
    add("serial.serialize_virt_us", per(f.ser_virt_ns / 1e3, calls),
        "virt_us");
    add("serial.deserialize_virt_us", per(f.deser_virt_ns / 1e3, calls),
        "virt_us");
    add("serial.serializer_invocations",
        per(static_cast<double>(s.serializer_invocations), calls), "count/rmi");
    add("serial.cycle_lookups",
        per(static_cast<double>(s.cycle_lookups), calls), "count/rmi");
    add("serial.type_info_bytes",
        per(static_cast<double>(s.type_info_bytes), calls), "B/rmi");
    add("objmodel.objects_allocated",
        per(static_cast<double>(s.objects_allocated), calls), "count/rmi");
    add("objmodel.objects_reused",
        per(static_cast<double>(s.objects_reused), calls), "count/rmi");
    add("objmodel.bytes_allocated",
        per(static_cast<double>(s.bytes_allocated), calls), "B/rmi");
    add("objmodel.reuse_ratio",
        per(static_cast<double>(s.objects_reused),
            static_cast<double>(s.objects_reused + s.objects_allocated)),
        "frac");
    add("wire.frames_per_rmi", per(static_cast<double>(n.frames), calls),
        "count/rmi");
    add("wire.coalesced_frac",
        per(static_cast<double>(n.coalesced), static_cast<double>(n.messages)),
        "frac");
    add("net.bytes_per_rmi", per(static_cast<double>(n.bytes), calls),
        "B/rmi");
    add("net.flight_virt_us", per(f.flight_virt_ns / 1e3, calls), "virt_us");
    add("driver.compile_us",
        level_median(untraced, i, [](const LevelRun& r) {
          return r.compile_s * 1e6;
        }),
        "us");
  }
  out.push_back({"rmi.start_stop_us", median(start_stop), "us"});
  out.push_back({"driver.pass_executions",
                 static_cast<double>(first.compile.total_executions()),
                 "count"});
  out.push_back({"driver.plan_cache_hits",
                 static_cast<double>(first.compile.total_hits()), "count"});
  out.push_back({"trace.overhead_frac",
                 per(loop_t, loop_u) - 1.0, "frac"});
}

// ---- output ----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_counters(const std::vector<Round>& rounds) {
  const Round& r = rounds.front();
  std::string s = "counters {";
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    const LevelRun& l = r.levels[i];
    const auto& t = l.result.total;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s\"%s\": {\"makespan_ns\": %lld, \"calls\": %llu, "
        "\"remote_rpcs\": %llu, \"messages\": %llu, \"bytes\": %llu, "
        "\"frames\": %llu, \"objects_allocated\": %llu, "
        "\"objects_reused\": %llu, \"bytes_allocated\": %llu, "
        "\"cycle_lookups\": %llu, \"serializer_invocations\": %llu, "
        "\"type_info_bytes\": %llu}",
        i == 0 ? "" : ", ", std::string(level_suffix(l.level)).c_str(),
        static_cast<long long>(l.result.makespan.as_nanos()),
        static_cast<unsigned long long>(l.calls),
        static_cast<unsigned long long>(t.remote_rpcs),
        static_cast<unsigned long long>(l.result.messages),
        static_cast<unsigned long long>(l.result.bytes),
        static_cast<unsigned long long>(l.result.net.frames),
        static_cast<unsigned long long>(t.serial.objects_allocated),
        static_cast<unsigned long long>(t.serial.objects_reused),
        static_cast<unsigned long long>(t.serial.bytes_allocated),
        static_cast<unsigned long long>(t.serial.cycle_lookups),
        static_cast<unsigned long long>(t.serial.serializer_invocations),
        static_cast<unsigned long long>(t.serial.type_info_bytes));
    s += buf;
  }
  std::printf("%s}\n", s.c_str());
}

void print_result(const Verdict& v, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string s = "{\"correct\": ";
  s += v.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rmibench: %s\n"
               "usage: rmibench --workload "
               "list_sync|superopt_stream|webserver_pages --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] "
               "[--dump-counters]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o, const char** err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--dump-counters") {
      o.dump_counters = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value";
      return false;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      have_workload = parse_workload(val, &o.workload);
      if (!have_workload) {
        *err = "unknown workload";
        return false;
      }
    } else if (a == "--seed") {
      o.params.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
    } else if (a == "--trace") {
      o.trace = val == "1";
      if (val != "0" && val != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
    } else if (a == "--trace-out") {
      o.trace_out = val;
    } else {
      *err = "unknown argument";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *err = "bad number";
      return false;
    }
  }
  if (!have_workload) *err = "--workload is required";
  return have_workload;
}

int run(const Options& o) {

  const auto t_start = Clock::now();
  std::vector<Round> rounds;
  rmiopt::trace::MemoryRecorder rec;
  std::string trace_out = o.trace_out;
  // A round (or an untraced + traced pair) repeats while the next one is
  // expected to finish inside --seconds.
  do {
    const auto t0 = Clock::now();
    rounds.push_back(run_round(o, nullptr, false, nullptr));
    if (o.trace) rounds.push_back(run_round(o, &rec, false, &trace_out));
    const double step = elapsed_s(t0);
    if (elapsed_s(t_start) + step > o.seconds) break;
  } while (true);

  Verdict v;
  check_outputs(rounds, v);
  check_repeatable(o, rounds, v);

  std::vector<const Round*> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    (r.traced ? traced : untraced).push_back(&r);
    for (const LevelRun& l : r.levels) {
      attempted += l.calls;
      failed += l.failed;
    }
  }

  std::vector<Metric> metrics;
  if (o.trace) {
    cross_check_apps(o, rounds.front(), v);
    per_layer(untraced, traced, metrics);
  } else {
    end_to_end(untraced, setup_seconds(o, kSetupSweeps), attempted, failed,
               metrics);
  }
  std::fprintf(stderr, "rmibench: %s seed %llu: %zu round(s), %llu calls, "
               "%.2f s\n",
               std::string(workload_name(o.workload)).c_str(),
               static_cast<unsigned long long>(o.params.seed), rounds.size(),
               static_cast<unsigned long long>(attempted),
               elapsed_s(t_start));
  if (o.dump_counters) print_counters(rounds);
  print_result(v, attempted, failed, metrics);
  return v.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const char* err = "";
  if (!parse(argc, argv, o, &err)) return usage(err);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmibench: error: %s\n", e.what());
    return 2;
  }
}
