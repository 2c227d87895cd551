#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "apps/harness.hpp"
#include "apps/microbench.hpp"
#include "apps/superopt.hpp"
#include "apps/webserver.hpp"
#include "driver/compile.hpp"
#include "rmi/name_service.hpp"
#include "support/rng.hpp"

namespace rmibench {

using namespace rmiopt;
using Clock = std::chrono::steady_clock;

namespace {

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Times one invoke and returns its value; a call that raises counts as
// failed, adds no sample and returns nothing.
template <typename Call>
std::optional<om::ObjRef> timed_invoke(Call&& call,
                                       std::vector<float>& samples,
                                       std::uint64_t& failed) {
  const auto t0 = Clock::now();
  try {
    om::ObjRef v = call();
    samples.push_back(static_cast<float>(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count()));
    return v;
  } catch (const Error&) {
    ++failed;
    return std::nullopt;
  }
}

// Bytes the process has malloc'd and not freed, in MiB.  Unlike RSS this
// does not depend on which malloc arena each short-lived runtime thread
// happened to draw.
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// Raises `peak` to the heap in use above `base_mb` (the level's start, so
// heap that earlier levels leaked does not count).
void sample_heap(double& peak, double base_mb) {
  peak = std::max(peak, heap_in_use_mb() - base_mb);
}

void note(LevelRun& r, std::uint64_t bad, const std::string& what) {
  if (bad == 0) return;
  r.failed += bad;
  if (r.check_error.empty()) r.check_error = what;
}

driver::CompiledProgram compile(LevelRun& r, Sweep& sweep) {
  const auto t0 = Clock::now();
  driver::CompiledProgram prog =
      sweep.pm.compile(*sweep.model.module, r.level);
  r.compile_s = seconds(t0, Clock::now());
  return prog;
}

void timed_start(LevelRun& r, rmi::RmiSystem& sys) {
  const auto t0 = Clock::now();
  sys.start();
  r.start_stop_s += seconds(t0, Clock::now());
}

void timed_stop(LevelRun& r, rmi::RmiSystem& sys) {
  const auto t0 = Clock::now();
  sys.stop();
  r.start_stop_s += seconds(t0, Clock::now());
}

void collect(LevelRun& r, net::Cluster& cluster, rmi::RmiSystem& sys,
             const driver::CompiledProgram& prog) {
  r.result = apps::collect_run(cluster, sys);
  r.result.compile = prog.stats;
  for (std::uint32_t site : r.sites) r.site_stats += sys.callsite_stats(site);
}

// ---- list_sync: Figure 14 list sent synchronously to a void method ------

void run_list(LevelRun& r, const Params& p, Sweep& sweep,
              trace::Recorder* recorder, bool setup_only) {
  const double heap_base = heap_in_use_mb();
  const auto t0 = Clock::now();
  const apps::figures::FigureProgram& model = sweep.model;
  const driver::CompiledProgram prog = compile(r, sweep);
  net::Cluster cluster(2, *model.types);
  if (recorder != nullptr) cluster.set_recorder(recorder);
  rmi::RmiSystem sys(cluster, *model.types);

  std::uint64_t received = 0;  // read after stop() joined the dispatcher
  const auto send_method = sys.define_method(
      "Foo.send", [&](rmi::CallContext&, auto, auto) {
        ++received;
        return rmi::HandlerResult{};
      });
  const std::uint32_t site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("send"), send_method));
  r.sites = {site};
  om::Heap& h1 = cluster.machine(1).heap();
  const om::ObjRef foo_obj = h1.alloc(apps::marker_class(*model.types, "Foo"));
  const rmi::RemoteRef foo = sys.export_object(1, foo_obj);
  timed_start(r, sys);

  om::Heap& h0 = cluster.machine(0).heap();
  const om::ClassDescriptor& node_cls =
      model.types->get(model.cls("LinkedList"));
  om::ObjRef head = nullptr;
  for (int i = 0; i < p.list_length; ++i) {
    om::ObjRef node = h0.alloc(node_cls);
    node->set_ref(node_cls.fields[0], head);
    head = node;
  }
  const auto t1 = Clock::now();
  r.setup_s = seconds(t0, t1);

  if (!setup_only) {
    r.invoke_us.reserve(static_cast<std::size_t>(p.list_calls));
    for (int i = 0; i < p.list_calls; ++i) {
      timed_invoke([&] { return sys.invoke(0, foo, site, std::array{head}); },
                   r.invoke_us, r.failed);
      if (++r.calls % kHeapSampleEvery == 0) sample_heap(r.heap_mb, heap_base);
    }
    r.loop_s = seconds(t1, Clock::now());
    sample_heap(r.heap_mb, heap_base);
  }
  timed_stop(r, sys);
  collect(r, cluster, sys, prog);
  h0.free_graph(head);
  h1.free(foo_obj);

  // Every call that returned must have been received exactly once.
  const std::uint64_t returned = r.calls - r.failed;
  note(r, returned > received ? returned - received : received - returned,
       "list_sync: handler receipts " + std::to_string(received) +
           " != completed calls " + std::to_string(returned));
}

// ---- superopt_stream: the superoptimizer's candidate stream -------------
//
// Mirrors apps/superopt.cpp: the producer on machine 0 enumerates every
// candidate sequence up to max_len and ships each as Tester.test(Program);
// the handler queues the graph (it escapes) and one tester thread checks it
// against the target r0 = r0 + r0 on seeded random register states.

constexpr int kOperandSpace = apps::kSopRegs + apps::kSopImms;

apps::SopOperand decode_operand(int code) {
  return code < apps::kSopRegs ? apps::SopOperand{false, code}
                               : apps::SopOperand{true, code - apps::kSopRegs};
}

struct TesterQueue {
  std::mutex mu;
  std::condition_variable cv_push, cv_pop;
  std::deque<om::ObjRef> items;
  std::size_t capacity = 64;
  bool done = false;

  void push(om::ObjRef p) {  // a closed queue drops the item
    std::unique_lock lock(mu);
    cv_push.wait(lock, [&] { return items.size() < capacity || done; });
    if (done) return;
    items.push_back(p);
    cv_pop.notify_one();
  }
  om::ObjRef pop() {  // nullptr when drained and closed
    std::unique_lock lock(mu);
    cv_pop.wait(lock, [&] { return !items.empty() || done; });
    if (items.empty()) return nullptr;
    om::ObjRef p = items.front();
    items.pop_front();
    cv_push.notify_one();
    return p;
  }
  void close() {
    std::scoped_lock lock(mu);
    done = true;
    cv_pop.notify_all();
    cv_push.notify_all();
  }
};

void run_superopt(LevelRun& r, const Params& p, Sweep& sweep,
                  trace::Recorder* recorder, bool setup_only) {
  const double heap_base = heap_in_use_mb();
  const auto t0 = Clock::now();
  const apps::figures::FigureProgram& model = sweep.model;
  const driver::CompiledProgram prog = compile(r, sweep);
  const apps::SopProgram target{apps::SopInstr{
      apps::SopOp::Add, 0, decode_operand(0), decode_operand(0)}};

  net::Cluster cluster(2, *model.types);
  if (recorder != nullptr) cluster.set_recorder(recorder);
  rmi::RmiSystem sys(cluster, *model.types);
  rmi::NameService names(sys, *model.types);

  const om::ClassDescriptor& operand_cls =
      model.types->get(model.cls("Operand"));
  const om::ClassDescriptor& instr_cls =
      model.types->get(model.cls("Instruction"));
  const om::ClassId instr_arr_cls = model.cls("[LInstruction;");
  const om::ClassDescriptor& program_cls =
      model.types->get(model.cls("Program"));

  auto encode = [&](om::Heap& heap, const apps::SopProgram& prog_in) {
    om::ObjRef prog_obj = heap.alloc(program_cls);
    om::ObjRef code = heap.alloc_array(
        instr_arr_cls, static_cast<std::uint32_t>(prog_in.size()));
    prog_obj->set_ref(program_cls.fields[0], code);
    for (std::size_t i = 0; i < prog_in.size(); ++i) {
      const apps::SopInstr& in = prog_in[i];
      om::ObjRef ins = heap.alloc(instr_cls);
      ins->set<std::int32_t>(instr_cls.fields[0],
                             static_cast<std::int32_t>(in.op) * 8 + in.dst);
      const apps::SopOperand ops[3] = {in.src1, in.src2, {}};
      for (int k = 0; k < 3; ++k) {
        om::ObjRef o = heap.alloc(operand_cls);
        o->set<std::int32_t>(operand_cls.fields[0], ops[k].is_imm ? 1 : 0);
        o->set<std::int64_t>(operand_cls.fields[1], ops[k].value);
        ins->set_ref(instr_cls.fields[1 + k], o);
      }
      code->set_elem_ref(static_cast<std::uint32_t>(i), ins);
    }
    return prog_obj;
  };
  auto decode = [&](om::ObjRef prog_obj) {
    apps::SopProgram out;
    om::ObjRef code = prog_obj->get_ref(program_cls.fields[0]);
    for (std::uint32_t i = 0; i < code->length(); ++i) {
      om::ObjRef ins = code->get_elem_ref(i);
      const std::int32_t packed = ins->get<std::int32_t>(instr_cls.fields[0]);
      apps::SopInstr si;
      si.op = static_cast<apps::SopOp>(packed / 8);
      si.dst = packed % 8;
      om::ObjRef o1 = ins->get_ref(instr_cls.fields[1]);
      om::ObjRef o2 = ins->get_ref(instr_cls.fields[2]);
      si.src1 = {o1->get<std::int32_t>(operand_cls.fields[0]) != 0,
                 o1->get<std::int64_t>(operand_cls.fields[1])};
      si.src2 = {o2->get<std::int32_t>(operand_cls.fields[0]) != 0,
                 o2->get<std::int64_t>(operand_cls.fields[1])};
      out.push_back(si);
    }
    return out;
  };

  TesterQueue queue;
  std::atomic<std::uint64_t> equivalences{0};
  std::atomic<std::uint64_t> tested{0};
  const auto test_method = sys.define_method(
      "Tester.test",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        queue.push(args[0]);  // the program escapes: no reuse
        return rmi::HandlerResult{.args_consumed = true};
      });
  const std::uint32_t site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("test"), test_method));
  r.sites = {site};
  const om::ObjRef tester_obj = cluster.machine(1).heap().alloc(
      apps::marker_class(*model.types, "Tester"));
  rmi::RemoteRef tester = sys.export_object(1, tester_obj);
  timed_start(r, sys);
  names.bind(1, "Tester#0", tester);
  tester = names.lookup(0, "Tester#0");

  // The tester: pops, decodes and checks every candidate against the
  // target on test vectors drawn from the seed.
  std::atomic<bool> tester_failed{false};
  std::string tester_error;  // written by the tester, read after join
  auto test_candidates = [&] {
    om::Heap& heap = cluster.machine(1).heap();
    std::vector<std::array<std::int64_t, apps::kSopRegs>> vectors(
        static_cast<std::size_t>(p.superopt_vectors));
    SplitMix64 vec_rng(p.seed);
    for (auto& v : vectors) {
      for (auto& x : v) x = vec_rng.next_i64();
    }
    while (om::ObjRef obj = queue.pop()) {
      const apps::SopProgram candidate = decode(obj);
      bool equal = true;
      for (const auto& v : vectors) {
        std::int64_t r1[apps::kSopRegs], r2[apps::kSopRegs];
        std::copy(v.begin(), v.end(), r1);
        std::copy(v.begin(), v.end(), r2);
        apps::sop_execute(target, r1);
        apps::sop_execute(candidate, r2);
        if (!std::equal(r1, r1 + apps::kSopRegs, r2)) {
          equal = false;
          break;
        }
      }
      if (equal) equivalences.fetch_add(1);
      heap.free_graph(obj);  // the queue owned it
      tested.fetch_add(1);
    }
  };
  std::thread tester_thread([&] {
    try {
      test_candidates();
    } catch (const std::exception& e) {
      tester_error = e.what();
      tester_failed = true;
      queue.close();  // later pushes return at once
    }
  });
  // Closes the queue and joins the tester on every path out of this scope.
  struct Joiner {
    TesterQueue& queue;
    std::thread& thread;
    ~Joiner() {
      queue.close();
      if (thread.joinable()) thread.join();
    }
  } joiner{queue, tester_thread};
  const auto t1 = Clock::now();
  r.setup_s = seconds(t0, t1);

  std::uint64_t delivered = 0;
  if (!setup_only) {
    om::Heap& h0 = cluster.machine(0).heap();
    apps::SopProgram candidate;
    auto emit = [&] {
      om::ObjRef obj = encode(h0, candidate);
      if (timed_invoke(
              [&] { return sys.invoke(0, tester, site, std::array{obj}); },
              r.invoke_us, r.failed)) {
        ++delivered;
      }
      h0.free_graph(obj);  // the producer's copy; the tester has its own
      if (++r.calls % kHeapSampleEvery == 0) sample_heap(r.heap_mb, heap_base);
    };
    auto enumerate = [&](auto&& self, int depth) -> void {
      for (int op = 0; op < apps::kSopOps; ++op) {
        for (int dst = 0; dst < apps::kSopRegs; ++dst) {
          for (int s1 = 0; s1 < kOperandSpace; ++s1) {
            for (int s2 = 0; s2 < kOperandSpace; ++s2) {
              candidate.push_back(apps::SopInstr{static_cast<apps::SopOp>(op),
                                                 dst, decode_operand(s1),
                                                 decode_operand(s2)});
              emit();
              if (depth + 1 < p.superopt_max_len) self(self, depth + 1);
              candidate.pop_back();
            }
          }
        }
      }
    };
    enumerate(enumerate, 0);
    while (tested.load() < delivered && !tester_failed) {
      std::this_thread::yield();
    }
    r.loop_s = seconds(t1, Clock::now());
    sample_heap(r.heap_mb, heap_base);
  }
  queue.close();
  tester_thread.join();
  timed_stop(r, sys);
  collect(r, cluster, sys, prog);
  cluster.machine(1).heap().free(tester_obj);
  note(r, tester_error.empty() ? 0 : 1,
       "superopt_stream: tester: " + tester_error);

  if (!setup_only) {
    const std::uint64_t found = equivalences.load();
    const std::uint64_t want = kSuperoptEquivalences;
    note(r, found > want ? found - want : want - found,
         "superopt_stream: " + std::to_string(found) +
             " equivalences, expected " + std::to_string(want));
  }
}

// ---- webserver_pages: get_page(url) from two client pipelines -----------
//
// Mirrors apps/webserver.cpp on a healthy network with one slave: the
// master (machine 0) sends each seeded request to the slave (the app's
// URL-hash routing always picks it), which returns the page from its
// table.  Both pipelines share the one get_page call site, as in the app.

std::string url_for(std::size_t page) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/page%06zu.html", page);
  return buf;
}

// A page's body: its URL, then filler, so that every page is distinct.
std::string page_body(std::size_t page, std::size_t size) {
  std::string body = url_for(page);
  for (std::size_t i = body.size(); i < size; ++i) {
    body.push_back(static_cast<char>('a' + (page + i) % 26));
  }
  body.resize(size);
  return body;
}

void run_webserver(LevelRun& r, const Params& p, Sweep& sweep,
                   trace::Recorder* recorder, bool setup_only) {
  const double heap_base = heap_in_use_mb();
  const auto t0 = Clock::now();
  const apps::figures::FigureProgram& model = sweep.model;
  const driver::CompiledProgram prog = compile(r, sweep);
  net::Cluster cluster(2, *model.types);
  if (recorder != nullptr) cluster.set_recorder(recorder);
  rmi::RmiSystem sys(cluster, *model.types);
  rmi::NameService names(sys, *model.types);

  std::vector<std::string> bodies;                    // the expected pages
  std::unordered_map<std::string, om::ObjRef> table;  // the slave's pages
  om::Heap& h1 = cluster.machine(1).heap();
  for (std::size_t pg = 0; pg < p.web_pages; ++pg) {
    bodies.push_back(page_body(pg, p.web_page_size));
    table.emplace(url_for(pg), h1.alloc_string(bodies.back()));
  }
  std::atomic<std::uint64_t> misses{0};
  const auto get_page = sys.define_method(
      "Server.get_page",
      [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        auto it = table.find(std::string(args[0]->as_string_view()));
        if (it == table.end()) {
          ++misses;
          return rmi::HandlerResult{};  // 404: null page
        }
        return rmi::HandlerResult{.value = it->second};  // table-owned
      });
  const std::size_t clients = std::max<std::size_t>(1, p.web_clients);
  const std::uint32_t site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("get_page"), get_page));
  r.sites = {site};
  const bool ret_reused = sys.callsite(site).plan->reuse_ret;
  const om::ObjRef server_obj =
      h1.alloc(apps::marker_class(*model.types, "Server"));
  const rmi::RemoteRef server = sys.export_object(1, server_obj);
  timed_start(r, sys);
  names.bind(1, "Server#0", server);
  const rmi::RemoteRef resolved = names.lookup(0, "Server#0");
  const auto t1 = Clock::now();
  r.setup_s = seconds(t0, t1);

  struct Client {
    std::vector<float> invoke_us;
    std::uint64_t calls = 0, failed = 0, bad_pages = 0, bytes = 0;
    double heap_mb = 0.0;            // as LevelRun::heap_mb
    om::ObjRef last_page = nullptr;  // held by the site's reuse slot
    std::string error;               // an exception that ended the pipeline
  };
  std::vector<Client> state(clients);
  om::Heap& h0 = cluster.machine(0).heap();
  if (!setup_only) {
    auto client = [&](std::size_t id) {
      Client& c = state[id];
      SplitMix64 rng(p.seed + id);
      const std::size_t quota =
          p.web_requests / clients + (id < p.web_requests % clients ? 1 : 0);
      c.invoke_us.reserve(quota);
      for (std::size_t q = 0; q < quota; ++q) {
        const std::size_t page = rng.next_below(p.web_pages);
        const std::string url = url_for(page);
        om::ObjRef url_obj = h0.alloc_string(url);
        const std::optional<om::ObjRef> reply = timed_invoke(
            [&] { return sys.invoke(0, resolved, site, std::array{url_obj}); },
            c.invoke_us, c.failed);
        if (++c.calls % kHeapSampleEvery == 0) {
          sample_heap(c.heap_mb, heap_base);
        }
        if (reply) {
          const om::ObjRef page_obj = *reply;
          const bool good = page_obj != nullptr &&
                            page_obj->as_string_view() == bodies[page];
          if (page_obj != nullptr) {
            c.bytes += page_obj->length();
            if (ret_reused) {
              c.last_page = page_obj;
            } else {
              h0.free_graph(page_obj);
            }
          }
          c.bad_pages += good ? 0 : 1;
        }
        h0.free(url_obj);
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client(c);
        } catch (const std::exception& e) {
          state[c].error = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
    r.loop_s = seconds(t1, Clock::now());
    sample_heap(r.heap_mb, heap_base);

    std::uint64_t bad_pages = 0, bytes = 0;
    for (Client& c : state) {
      r.invoke_us.insert(r.invoke_us.end(), c.invoke_us.begin(),
                         c.invoke_us.end());
      r.calls += c.calls;
      r.failed += c.failed;
      r.heap_mb = std::max(r.heap_mb, c.heap_mb);
      bad_pages += c.bad_pages;
      bytes += c.bytes;
      note(r, c.error.empty() ? 0 : 1, "webserver_pages: client: " + c.error);
    }
    note(r, bad_pages, "webserver_pages: wrong or missing page content");
    const std::uint64_t want = r.calls * p.web_page_size;
    if (bytes != want && r.check_error.empty()) {
      r.check_error = "webserver_pages: page bytes " + std::to_string(bytes) +
                      " != requests x page size " + std::to_string(want);
    }
    note(r, misses.load(), "webserver_pages: served a 404");
  }
  timed_stop(r, sys);
  collect(r, cluster, sys, prog);
  for (auto& [url, page] : table) h1.free(page);
  h1.free(server_obj);
  // The pipelines share the site, so their last pages may be one object.
  std::unordered_set<om::ObjRef> last_pages;
  for (Client& c : state) {
    if (c.last_page != nullptr) last_pages.insert(c.last_page);
  }
  for (om::ObjRef page : last_pages) h0.free_graph(page);
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::ListSync, Workload::SuperoptStream,
                     Workload::WebserverPages}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::ListSync:
      return "list_sync";
    case Workload::SuperoptStream:
      return "superopt_stream";
    case Workload::WebserverPages:
      return "webserver_pages";
  }
  return "?";
}

std::string_view level_suffix(OptLevel l) {
  switch (l) {
    case OptLevel::Heavy:
      return "introspect";
    case OptLevel::Class:
      return "class";
    case OptLevel::Site:
      return "site";
    case OptLevel::SiteCycle:
      return "site_cycle";
    case OptLevel::SiteReuse:
      return "site_reuse";
    case OptLevel::SiteReuseCycle:
      return "site_reuse_cycle";
  }
  return "?";
}

namespace {

apps::figures::FigureProgram make_model(Workload w) {
  switch (w) {
    case Workload::ListSync:
      return apps::figures::make_figure14();
    case Workload::SuperoptStream:
      return apps::figures::make_superopt_model();
    case Workload::WebserverPages:
      return apps::figures::make_webserver_model();
  }
  throw Error("unknown workload");
}

}  // namespace

Sweep::Sweep(Workload w, trace::Recorder* compile_recorder)
    : model(make_model(w)),
      pm(driver::PassManager::Options{.recorder = compile_recorder}) {}

LevelRun run_level(Workload w, OptLevel level, const Params& p, Sweep& sweep,
                   trace::Recorder* recorder, bool setup_only) {
  LevelRun r;
  r.level = level;
  switch (w) {
    case Workload::ListSync:
      run_list(r, p, sweep, recorder, setup_only);
      break;
    case Workload::SuperoptStream:
      run_superopt(r, p, sweep, recorder, setup_only);
      break;
    case Workload::WebserverPages:
      run_webserver(r, p, sweep, recorder, setup_only);
      break;
  }
  return r;
}

apps::RunResult run_app(Workload w, OptLevel level, const Params& p,
                        Sweep& sweep) {
  switch (w) {
    case Workload::ListSync: {
      apps::ListBenchConfig cfg;
      cfg.list_length = p.list_length;
      cfg.iterations = p.list_calls;
      cfg.model = &sweep.model;
      cfg.pass_manager = &sweep.pm;
      return apps::run_list_bench(level, cfg);
    }
    case Workload::SuperoptStream: {
      apps::SuperoptConfig cfg;
      cfg.max_len = p.superopt_max_len;
      cfg.test_vectors = p.superopt_vectors;
      cfg.seed = p.seed;
      cfg.model = &sweep.model;
      cfg.pass_manager = &sweep.pm;
      return apps::run_superopt(level, cfg);
    }
    case Workload::WebserverPages: {
      apps::WebserverConfig cfg;
      cfg.pages = p.web_pages;
      cfg.page_size = p.web_page_size;
      cfg.requests = p.web_requests;
      cfg.concurrent_clients = p.web_clients;
      cfg.seed = p.seed;
      cfg.model = &sweep.model;
      cfg.pass_manager = &sweep.pm;
      return apps::run_webserver(level, cfg);
    }
  }
  throw Error("unknown workload");
}

}  // namespace rmibench
