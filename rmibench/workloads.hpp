// The benchmark's three workloads, each driven through the public
// driver::PassManager / net::Cluster / rmi::RmiSystem API over the IR
// models of apps/paper_figures.hpp, so that every RmiSystem::invoke is
// timed from outside the runtime.
//
// One call of run_level() is one row of the paper's sweep: compile the
// workload's model at one optimization level, build a fresh 2-machine Sim
// cluster and RMI system, run the closed call loop (every caller waits for
// its reply), check the outputs and collect the virtual clock and the
// runtime's counters exactly as apps::collect_run does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/paper_figures.hpp"
#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"
#include "driver/pass_manager.hpp"
#include "trace/trace.hpp"

namespace rmibench {

using rmiopt::codegen::OptLevel;

enum class Workload { ListSync, SuperoptStream, WebserverPages };

// Parses "list_sync" / "superopt_stream" / "webserver_pages"; returns
// false for any other name.
bool parse_workload(std::string_view name, Workload* out);
std::string_view workload_name(Workload w);

// Metric-name suffix of a paper level: "class", "site", "site_cycle",
// "site_reuse", "site_reuse_cycle".
std::string_view level_suffix(OptLevel l);

// Workload sizes.  The defaults are the benchmark's fixed configuration;
// only `seed` changes between runs.
struct Params {
  std::uint64_t seed = 1;
  int list_length = 100;      // Figure 14 / Table 1
  int list_calls = 2000;      // synchronous sends per level
  int superopt_max_len = 2;   // 224 + 224^2 candidates per level
  int superopt_vectors = 8;   // random register states per candidate
  std::size_t web_requests = 4000;  // get_page calls per level
  std::size_t web_clients = 2;      // concurrent client pipelines
  std::size_t web_pages = 64;       // pages per slave
  std::size_t web_page_size = 2048; // bytes per page
};

// Call-loop invokes between two heap samples (LevelRun::heap_mb).
inline constexpr std::uint64_t kHeapSampleEvery = 64;

// The superoptimizer's known answer for the default target r0 = r0 + r0
// at max_len 2: the number of candidate sequences equivalent to it.
inline constexpr std::uint64_t kSuperoptEquivalences = 114;

// One compiled model and the pass manager that compiles it at every level
// of a sweep.  The model is declared first so it outlives the manager's
// cached analyses (the lifetime contract of driver/pass_manager.hpp).
struct Sweep {
  Sweep(Workload w, rmiopt::trace::Recorder* compile_recorder);
  rmiopt::apps::figures::FigureProgram model;
  rmiopt::driver::PassManager pm;
};

// Everything one level of one sweep measured.
struct LevelRun {
  OptLevel level = OptLevel::Class;
  // Host seconds, from the benchmark's own spans.
  double setup_s = 0.0;       // compile .. first call (includes start())
  double compile_s = 0.0;     // PassManager::compile
  double start_stop_s = 0.0;  // RmiSystem::start + RmiSystem::stop
  double loop_s = 0.0;        // the timed call loop
  // The most heap in use above what was in use when the level began,
  // sampled every kHeapSampleEvery invokes of the call loop and at its end.
  double heap_mb = 0.0;
  std::vector<float> invoke_us;  // host us per completed invoke
  // Outputs.
  std::uint64_t calls = 0;   // invokes attempted
  std::uint64_t failed = 0;  // invokes that raised or failed the check
  std::string check_error;   // first output mismatch; empty when correct
  // Simulation: virtual makespan and counters, as apps::collect_run.
  std::vector<std::uint32_t> sites;  // runtime call sites of the workload
  rmiopt::apps::RunResult result;
  rmiopt::rmi::RmiStatsSnapshot site_stats;  // summed over `sites`
};

// Runs one level.  With `setup_only` the call loop is skipped (no calls,
// no output check): the run measures set-up alone.  `recorder` (may be
// null) is attached to the cluster for the whole level.
LevelRun run_level(Workload w, OptLevel level, const Params& p, Sweep& sweep,
                   rmiopt::trace::Recorder* recorder, bool setup_only = false);

// The repository's own app runner for the workload at the same
// configuration (apps::run_list_bench / run_superopt / run_webserver),
// compiled through `sweep` — the reference the benchmark's drivers are
// cross-checked against.
rmiopt::apps::RunResult run_app(Workload w, OptLevel level, const Params& p,
                                Sweep& sweep);

}  // namespace rmibench
