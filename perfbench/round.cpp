// perfbench_round — one round of one benchmark workload, in its own process.
//
// run.py starts this program once per round, so set-up and peak RSS are paid
// per round exactly as every real `wbsim` command pays them. The program
// composes the layers' public functions the way the matching `wbsim` command
// does (run.py checks the totals against that command byte for byte once per
// invocation) and prints one JSON line: the totals plus two CLOCK_MONOTONIC
// timestamps, `t_setup` (the work layer is about to be entered) and `t_done`
// (the totals are in hand). run.py takes the process start and exit times
// itself.
//
// With --trace=FILE the round also records a span around every layer call
// (name, start, end, parent) and the counts at the same boundaries, keeps
// them in memory and writes them to FILE when the round ends. Calls made
// once per execution (judge, distinct insert) are timed into per-task sums
// instead of spans, so a traced sweep holds a few dozen spans, not millions.
// Untraced rounds run the same code with every timer off.
//
// usage: perfbench_round <workload> <graph-spec> <seed> [--threads=T]
//                        [--wbsim=PATH] [--trace=FILE]
//        perfbench_round --provenance
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/board_stats.h"
#include "src/analysis/schedule_stats.h"
#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/fleet/controller.h"
#include "src/fleet/transport.h"
#include "src/graph/algorithms.h"
#include "src/protocols/anon_frontier.h"
#include "src/protocols/bfs_sync.h"
#include "src/protocols/two_cliques.h"
#include "src/wb/distinct.h"
#include "src/wb/engine.h"
#include "src/wb/exhaustive.h"
#include "src/wb/shard.h"

namespace {

// Budgets that admit the workloads' 10! and 12! schedule spaces.
constexpr std::uint64_t kSweepBudget = 4'000'000;
constexpr std::uint64_t kMemoBudget = 1'000'000'000;
constexpr std::size_t kFleetShards = 4;
constexpr int kFleetHllPrecision = 14;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Minimal JSON output -------------------------------------------------

std::string json_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An ordered JSON object built field by field.
class JsonObject {
 public:
  void num(const std::string& key, double v) { add(key, json_number(v)); }
  void str(const std::string& key, const std::string& v) {
    add(key, json_string(v));
  }
  void raw(const std::string& key, const std::string& v) { add(key, v); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + value;
  }
  std::string body_;
};

// --- Tracing ---------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// Spans and counts of one round, in memory until write(). Disabled tracers
/// record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, current(), now_s(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  /// A closed span measured elsewhere (a task, a shard), under the open one.
  void add(const std::string& name, double start, double end) {
    if (enabled_) spans_.push_back({name, current(), start, end});
  }
  void count(const std::string& key, double value) {
    if (enabled_) counts_[key] = value;
  }

  void write(const std::string& path) const {
    std::string spans;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      JsonObject s;
      s.num("id", static_cast<double>(i));
      s.num("parent", spans_[i].parent);
      s.str("name", spans_[i].name);
      s.num("start", spans_[i].start);
      s.num("end", spans_[i].end);
      spans += (i == 0 ? "" : ",\n  ") + s.text();
    }
    JsonObject counts;
    for (const auto& [key, value] : counts_) counts.num(key, value);
    std::ofstream out(path);
    out << "{\"spans\": [\n  " << spans << "],\n\"counts\": " << counts.text()
        << "}\n";
    WB_REQUIRE_MSG(out.good(), "cannot write trace file " << path);
  }

 private:
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

/// RAII span: open at construction, closed at scope exit.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- Round inputs and outputs ----------------------------------------------

struct Options {
  std::string workload;
  std::string graph_spec;
  std::uint64_t seed = 0;
  std::size_t threads = 4;
  std::string wbsim;
  std::string trace_path;
};

struct Round {
  double t_setup = 0;
  double t_done = 0;
  JsonObject totals;
};

wb::Graph build_graph(Tracer& tr, const std::string& spec) {
  const Span span(tr, "graph.build");
  wb::Graph g = wb::cli::graph_from_spec(spec);
  tr.count("graph.bytes", static_cast<double>(g.memory_bytes()));
  return g;
}

// The per-execution verdicts of src/cli/runners.cpp, text sink included, so
// a judged execution costs here what it costs in `wbsim`.
bool judge_two_cliques(const wb::TwoCliquesProtocol& p, const wb::Graph& g,
                       bool truth, const wb::ExecutionResult& r) {
  const wb::TwoCliquesOutput out = p.output(r.board, g.node_count());
  thread_local std::ostringstream sink;
  sink.seekp(0);
  sink << "verdict    " << (out.yes ? "YES" : "NO") << " (truth: "
       << (truth ? "YES" : "NO") << ")\n";
  return out.yes == truth;
}

bool judge_anon_degree(const wb::AnonDegreeProtocol& p, const wb::Graph& g,
                       const wb::AnonDegreeOutput& expect,
                       const wb::ExecutionResult& r) {
  const wb::AnonDegreeOutput out = p.output(r.board, g.node_count());
  thread_local std::ostringstream sink;
  sink.seekp(0);
  const bool ok = out == expect;
  sink << "verdict    " << out.size() << " anonymous degrees — "
       << (ok ? "exact multiset" : "WRONG") << "\n";
  return ok;
}

void put_sweep_totals(Round& round, std::uint64_t executions,
                      std::uint64_t engine_failures,
                      std::uint64_t wrong_outputs, std::uint64_t distinct,
                      const wb::DistinctConfig& config, std::size_t n) {
  round.totals.num("executions", static_cast<double>(executions));
  round.totals.num("engine_failures", static_cast<double>(engine_failures));
  round.totals.num("wrong_outputs", static_cast<double>(wrong_outputs));
  round.totals.num("distinct", static_cast<double>(distinct));
  // A successful execution is n writing rounds plus the terminal round.
  round.totals.num("engine_rounds",
                   static_cast<double>(executions) * static_cast<double>(n + 1));
  round.totals.str("summary",
                   wb::cli::exhaustive_summary_lines(
                       executions, engine_failures, wrong_outputs, distinct,
                       config));
}

// --- sweep_exact: partition + for_each_execution_under + exact distinct ----

/// What one subtree task did, timed only in traced rounds. Each task is
/// swept by one worker, so its record needs no locking; the alignment keeps
/// neighbouring records off each other's cache lines.
struct alignas(64) TaskTrace {
  double first = 0;
  double last = 0;
  double judge_s = 0;
  double insert_s = 0;
  std::uint64_t visits = 0;
  std::uint64_t judged = 0;
};

void run_sweep_exact(const Options& opt, Tracer& tr, Round& round) {
  const wb::Graph g = build_graph(tr, opt.graph_spec);
  const std::size_t n = g.node_count();
  std::optional<wb::TwoCliquesProtocol> p;
  bool truth = false;
  {
    const Span span(tr, "protocols.construct");
    p.emplace();
    truth = wb::is_two_cliques(g);
  }
  wb::ExhaustiveOptions eopts;
  eopts.threads = opt.threads;
  eopts.max_executions = kSweepBudget;
  eopts.distinct = wb::DistinctConfig::Exact();
  std::vector<wb::PrefixTask> tasks;
  {
    const Span span(tr, "exhaustive.partition");
    tasks = wb::partition_for_threads(g, *p, eopts.engine, eopts.threads);
  }
  tr.count("exhaustive.tasks", static_cast<double>(tasks.size()));
  std::vector<std::unique_ptr<wb::DistinctAccumulator>> accumulators;
  accumulators.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    accumulators.push_back(wb::make_distinct_accumulator(eopts.distinct));
  }
  std::atomic<std::uint64_t> engine_failures{0};
  std::atomic<std::uint64_t> wrong_outputs{0};
  std::vector<TaskTrace> task_trace(tr.enabled() ? tasks.size() : 0);
  round.t_setup = now_s();

  std::uint64_t executions = 0;
  {
    const Span span(tr, "exhaustive.sweep");
    const double sweep_start = now_s();
    if (!tr.enabled()) {
      executions = wb::for_each_execution_under(
          g, *p, tasks,
          [&](const wb::ExecutionResult& r, std::size_t task) {
            accumulators[task]->insert(r.board.content_hash());
            if (!r.ok()) {
              engine_failures.fetch_add(1, std::memory_order_relaxed);
            } else if (!judge_two_cliques(*p, g, truth, r)) {
              wrong_outputs.fetch_add(1, std::memory_order_relaxed);
            }
            return true;
          },
          eopts);
    } else {
      executions = wb::for_each_execution_under(
          g, *p, tasks,
          [&](const wb::ExecutionResult& r, std::size_t task) {
            TaskTrace& tt = task_trace[task];
            const double t0 = now_s();
            accumulators[task]->insert(r.board.content_hash());
            const double t1 = now_s();
            if (!r.ok()) {
              engine_failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              ++tt.judged;
              if (!judge_two_cliques(*p, g, truth, r)) {
                wrong_outputs.fetch_add(1, std::memory_order_relaxed);
              }
            }
            const double t2 = now_s();
            if (tt.visits++ == 0) tt.first = t0;
            tt.last = t2;
            tt.insert_s += t1 - t0;
            tt.judge_s += t2 - t1;
            return true;
          },
          eopts);
      double busy = 0, visitor = 0, insert = 0, judge = 0, judged = 0;
      for (const TaskTrace& tt : task_trace) {
        if (tt.visits == 0) continue;
        tr.add("exhaustive.task", tt.first, tt.last);
        busy += tt.last - tt.first;
        visitor += tt.insert_s + tt.judge_s;
        insert += tt.insert_s;
        judge += tt.judge_s;
        judged += static_cast<double>(tt.judged);
      }
      const double sweep_s = now_s() - sweep_start;
      const std::size_t workers =
          std::min<std::size_t>(std::max<std::size_t>(opt.threads, 1),
                                tasks.size());
      tr.count("exhaustive.task_busy_s", busy);
      tr.count("exhaustive.self_s", busy - visitor);
      tr.count("exhaustive.worker_busy_frac",
               busy / (static_cast<double>(workers) * sweep_s));
      tr.count("exhaustive.threads", static_cast<double>(workers));
      tr.count("distinct.insert_s", insert);
      tr.count("protocols.judge_s", judge);
      tr.count("protocols.judge_calls", judged);
    }
  }
  tr.count("exhaustive.executions", static_cast<double>(executions));
  tr.count("distinct.inserts", static_cast<double>(executions));

  std::uint64_t distinct = 0;
  {
    const Span span(tr, "distinct.merge");
    if (tr.enabled()) {
      // Fold each task's buffered keys first so the keys held at the fold
      // can be counted; merge() would do the same flush itself.
      double keys = 0;
      for (auto& acc : accumulators) keys += static_cast<double>(acc->estimate());
      tr.count("distinct.key_bytes", 16 * keys);
      tr.count("distinct.merges", static_cast<double>(accumulators.size() - 1));
    }
    std::unique_ptr<wb::DistinctAccumulator> total =
        std::move(accumulators.front());
    for (std::size_t t = 1; t < accumulators.size(); ++t) {
      total->merge(std::move(*accumulators[t]));
    }
    distinct = total->estimate();
    accumulators.clear();
  }
  tr.count("distinct.distinct", static_cast<double>(distinct));
  round.t_done = now_s();
  put_sweep_totals(round, executions, engine_failures.load(),
                   wrong_outputs.load(), distinct, eopts.distinct, n);
}

// --- memo_grid: sweep_memoized ----------------------------------------------

void run_memo_grid(const Options& opt, Tracer& tr, Round& round) {
  const wb::Graph g = build_graph(tr, opt.graph_spec);
  const std::size_t n = g.node_count();
  std::optional<wb::AnonDegreeProtocol> p;
  wb::AnonDegreeOutput expect;
  {
    const Span span(tr, "protocols.construct");
    p.emplace();
    expect.reserve(n);
    for (wb::NodeId v = 1; v <= n; ++v) expect.push_back(g.degree(v));
    std::sort(expect.begin(), expect.end());
  }
  wb::ExhaustiveOptions eopts;
  eopts.threads = 1;
  eopts.max_executions = kMemoBudget;
  eopts.distinct = wb::DistinctConfig::Exact();
  eopts.memoize = true;
  double judge_s = 0;
  round.t_setup = now_s();

  wb::MemoizedTotals totals;
  {
    const Span span(tr, "memo.sweep");
    if (!tr.enabled()) {
      totals = wb::sweep_memoized(
          g, *p,
          [&](const wb::ExecutionResult& r) {
            return judge_anon_degree(*p, g, expect, r);
          },
          eopts);
    } else {
      totals = wb::sweep_memoized(
          g, *p,
          [&](const wb::ExecutionResult& r) {
            const double t0 = now_s();
            const bool ok = judge_anon_degree(*p, g, expect, r);
            judge_s += now_s() - t0;
            return ok;
          },
          eopts);
    }
  }
  round.t_done = now_s();
  // Every terminal the memo walk reaches is judged (when successful) and
  // inserted into the distinct accumulator once.
  tr.count("protocols.judge_s", judge_s);
  tr.count("protocols.judge_calls",
           static_cast<double>(totals.terminals_visited));
  tr.count("distinct.inserts", static_cast<double>(totals.terminals_visited));
  tr.count("distinct.distinct", static_cast<double>(totals.distinct));
  tr.count("exhaustive.executions", static_cast<double>(totals.executions));
  tr.count("memo.states_explored", static_cast<double>(totals.states_explored));
  tr.count("memo.memo_hits", static_cast<double>(totals.memo_hits));
  tr.count("memo.terminals_visited",
           static_cast<double>(totals.terminals_visited));
  put_sweep_totals(round, totals.executions, totals.engine_failures,
                   totals.wrong_outputs, totals.distinct, eopts.distinct, n);
  round.totals.num("states_explored",
                   static_cast<double>(totals.states_explored));
  round.totals.num("memo_hits", static_cast<double>(totals.memo_hits));
}

// --- rmat_bfs: one long execution stepped through EngineState ---------------

void run_rmat_bfs(const Options& opt, Tracer& tr, Round& round) {
  const wb::Graph g = build_graph(tr, opt.graph_spec);
  const std::size_t n = g.node_count();
  std::optional<wb::SyncBfsProtocol> p;
  wb::BfsForest ref;
  bool eob = false;
  std::unique_ptr<wb::Adversary> adversary;
  {
    const Span span(tr, "protocols.construct");
    p.emplace();
    ref = wb::bfs_forest(g);
    eob = wb::is_even_odd_bipartite(g);
    adversary = wb::cli::adversary_from_spec(
        "random:" + std::to_string(opt.seed), g);
  }
  // The loop of wb::run_protocol, which `wbsim G sync-bfs random:S` runs
  // through the batch engine with default engine options.
  adversary->reset();
  wb::EngineState state(g, *p, wb::EngineOptions{});
  round.t_setup = now_s();

  double begin_s = 0, choose_s = 0, write_s = 0;
  std::size_t engine_rounds = 0;
  {
    const Span span(tr, "engine.run");
    while (true) {
      if (!tr.enabled()) {
        state.begin_round();
        if (state.terminal()) break;
        state.write(adversary->choose(state.candidates(), state.board(),
                                      state.round()));
        continue;
      }
      const double t0 = now_s();
      state.begin_round();
      const double t1 = now_s();
      begin_s += t1 - t0;
      ++engine_rounds;
      if (state.terminal()) break;
      const std::size_t pick =
          adversary->choose(state.candidates(), state.board(), state.round());
      const double t2 = now_s();
      state.write(pick);
      choose_s += t2 - t1;
      write_s += now_s() - t2;
    }
  }
  const wb::ExecutionResult r = std::move(state).finish();

  bool correct = false;
  std::string verdict;
  {
    const Span span(tr, "protocols.judge");
    const double t0 = now_s();
    if (r.ok()) {
      const wb::BfsProtocolOutput out = p->output(r.board, n);
      std::ostringstream os;
      if (!out.valid) {
        os << "verdict    input reported invalid\n";
        correct = !eob;
      } else {
        correct = out.layer == ref.layer &&
                  wb::is_valid_bfs_forest(g, out.layer, out.parent);
        os << "verdict    BFS forest with " << out.roots.size()
           << " roots — " << (correct ? "valid" : "WRONG") << "\n";
      }
      verdict = os.str();
    }
    tr.count("protocols.judge_s", now_s() - t0);
    tr.count("protocols.judge_calls", r.ok() ? 1 : 0);
  }
  std::size_t rounds = 0, writes = 0, bits = 0;
  {
    const Span span(tr, "analysis.report");
    const wb::ScheduleStats sched = wb::analyze_schedule(r);
    rounds = sched.rounds;
    writes = sched.writes;
    bits = wb::analyze_board(r.board).total_bits;
  }
  round.t_done = now_s();
  tr.count("engine.rounds", static_cast<double>(engine_rounds));
  tr.count("engine.begin_round_s", begin_s);
  tr.count("engine.choose_s", choose_s);
  tr.count("engine.write_s", write_s);
  tr.count("exhaustive.executions", 1);

  round.totals.str("status", std::string(wb::status_name(r.status)));
  round.totals.num("executions", 1);
  round.totals.num("engine_rounds", static_cast<double>(rounds));
  round.totals.num("writes", static_cast<double>(writes));
  round.totals.num("board_bits", static_cast<double>(bits));
  round.totals.num("correct", correct ? 1 : 0);
  round.totals.str("verdict", verdict);
}

// --- fleet_hll: plan_shards + serialize + run_fleet + merge -----------------

/// A pipe pump between a worker's stdout and the controller, keeping a copy
/// of every byte so the traced round can time parse_shard_result and
/// merge_shard_results on exactly the result documents the controller
/// received. Used only in traced rounds.
class Relay {
 public:
  Relay(int from_worker, int to_controller)
      : from_(from_worker), to_(to_controller), thread_([this] { pump(); }) {}
  ~Relay() {
    if (thread_.joinable()) thread_.join();
  }
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  /// Waits for the worker side to close, then hands over the copy.
  [[nodiscard]] std::string take() {
    thread_.join();
    return std::move(bytes_);
  }

 private:
  void pump() {
    char buf[1 << 16];
    bool forwarding = true;
    while (true) {
      const ssize_t got = ::read(from_, buf, sizeof(buf));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      bytes_.append(buf, static_cast<std::size_t>(got));
      for (ssize_t off = 0; forwarding && off < got;) {
        const ssize_t put = ::write(to_, buf + off,
                                    static_cast<std::size_t>(got - off));
        if (put < 0 && errno == EINTR) continue;
        if (put <= 0) {
          forwarding = false;  // the controller hung up; keep draining
          break;
        }
        off += put;
      }
    }
    ::close(from_);
    ::close(to_);
  }

  int from_;
  int to_;
  std::string bytes_;
  std::thread thread_;  // last: starts after the members it uses
};

void close_on_exec(int fd) {
  WB_REQUIRE_MSG(::fcntl(fd, F_SETFD, FD_CLOEXEC) == 0,
                 "cannot set CLOEXEC on a worker pipe");
}

/// `wbsim fleet worker --threads=1` children with stdio on pipe pairs, as
/// the `exhaustive:shards=K` path of wbsim launches them; with `relays`,
/// worker output passes through a Relay.
wb::fleet::WorkerLauncher make_launcher(
    const std::string& wbsim, std::vector<std::unique_ptr<Relay>>* relays) {
  return [wbsim, relays](std::size_t index) {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    int to_controller[2] = {-1, -1};
    WB_REQUIRE_MSG(::pipe(to_child) == 0 && ::pipe(from_child) == 0 &&
                       (relays == nullptr || ::pipe(to_controller) == 0),
                   "cannot create pipes for worker " << index);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1], to_controller[0], to_controller[1]}) {
      if (fd >= 0) close_on_exec(fd);
    }
    const pid_t pid = ::fork();
    WB_REQUIRE_MSG(pid >= 0, "fork failed for worker " << index);
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      const char* args[] = {wbsim.c_str(), "fleet", "worker", "--threads=1",
                            nullptr};
      ::execv(wbsim.c_str(), const_cast<char* const*>(args));
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (relays == nullptr) {
      return wb::fleet::WorkerEndpoint{pid, to_child[1], from_child[0]};
    }
    relays->push_back(
        std::make_unique<Relay>(from_child[0], to_controller[1]));
    return wb::fleet::WorkerEndpoint{pid, to_child[1], to_controller[0]};
  };
}

/// Decode the result frames a relay copied, first result per shard.
void collect_results(const std::string& bytes,
                     std::map<std::uint32_t, std::string>& documents) {
  wb::fleet::FrameDecoder decoder;
  decoder.feed(bytes);
  while (const std::optional<wb::fleet::Frame> frame = decoder.next()) {
    if (frame->type != wb::fleet::FrameType::kResult) continue;
    const wb::shard::ShardResult r =
        wb::shard::parse_shard_result(frame->payload);
    documents.emplace(r.shard_index, frame->payload);
  }
}

void run_fleet_hll(const Options& opt, Tracer& tr, Round& round) {
  WB_REQUIRE_MSG(!opt.wbsim.empty(), "fleet_hll needs --wbsim=PATH");
  const wb::Graph g = build_graph(tr, opt.graph_spec);
  wb::shard::PlanOptions popts;
  popts.max_executions = kSweepBudget;
  popts.distinct = wb::DistinctConfig::Hll(kFleetHllPrecision);
  std::vector<wb::shard::ShardSpec> specs;
  {
    const Span span(tr, "shard.plan");
    specs = wb::cli::plan_protocol_spec_shards("two-cliques", g, kFleetShards,
                                               popts);
  }
  wb::fleet::PlanInputs plan;
  plan.name = "sweep";
  {
    const Span span(tr, "shard.serialize");
    plan.manifest = wb::shard::make_manifest(specs);
    for (const wb::shard::ShardSpec& spec : specs) {
      plan.spec_documents.push_back(wb::shard::serialize(spec));
    }
  }
  double spec_bytes = 0;
  for (const std::string& doc : plan.spec_documents) {
    spec_bytes += static_cast<double>(doc.size());
  }
  tr.count("shard.spec_bytes", spec_bytes);

  wb::fleet::FleetOptions fopts;
  fopts.workers = kFleetShards;
  double last_spawn = 0;
  std::map<std::uint32_t, double> dispatched;
  std::vector<std::pair<double, double>> shard_times;
  std::size_t workers_lost = 0;
  wb::fleet::FleetObserver observer;
  observer.on_spawn = [&](std::size_t, pid_t) { last_spawn = now_s(); };
  observer.on_dispatch = [&](std::size_t, const std::string&,
                             std::uint32_t shard, int) {
    const double t = now_s();
    if (round.t_setup == 0) round.t_setup = t;
    dispatched[shard] = t;
  };
  observer.on_result = [&](const std::string&, std::uint32_t shard) {
    shard_times.emplace_back(dispatched[shard], now_s());
  };
  observer.on_worker_lost = [&](std::size_t, const std::string&) {
    ++workers_lost;
  };
  std::vector<std::unique_ptr<Relay>> relays;
  std::vector<wb::fleet::PlanOutcome> outcomes;
  {
    const Span span(tr, "fleet.run");
    const double run_start = now_s();
    outcomes = wb::fleet::run_fleet(
        {plan}, fopts,
        make_launcher(opt.wbsim, tr.enabled() ? &relays : nullptr), observer);
    const double run_end = now_s();
    tr.add("fleet.spawn", run_start, last_spawn);
    double last_result = run_start;
    for (const auto& [start, end] : shard_times) {
      tr.add("fleet.shard", start, end);
      last_result = std::max(last_result, end);
    }
    tr.add("fleet.tail", last_result, run_end);
  }
  const wb::fleet::PlanOutcome& outcome = outcomes.front();
  WB_REQUIRE_MSG(outcome.completed && !outcome.budget_exceeded,
                 "fleet sweep failed: " << outcome.error);
  round.t_done = now_s();
  tr.count("fleet.reissues", static_cast<double>(outcome.reissues));
  tr.count("fleet.workers_lost", static_cast<double>(workers_lost));
  tr.count("exhaustive.executions",
           static_cast<double>(outcome.merged.executions));
  tr.count("distinct.inserts", static_cast<double>(outcome.merged.executions));
  tr.count("distinct.distinct",
           static_cast<double>(outcome.merged.distinct_boards));

  if (tr.enabled()) {
    // Replay the controller's receive path on the captured result documents.
    std::map<std::uint32_t, std::string> documents;
    for (const auto& relay : relays) collect_results(relay->take(), documents);
    std::vector<wb::shard::ShardResult> results;
    double result_bytes = 0;
    {
      const Span span(tr, "shard.parse");
      for (const auto& [index, doc] : documents) {
        results.push_back(wb::shard::parse_shard_result(doc));
        result_bytes += static_cast<double>(doc.size());
      }
    }
    tr.count("shard.result_bytes", result_bytes);
    wb::shard::MergedResult merged;
    {
      const Span span(tr, "shard.merge");
      merged = wb::shard::merge_shard_results(results);
    }
    WB_REQUIRE_MSG(merged.distinct_boards == outcome.merged.distinct_boards &&
                       merged.executions == outcome.merged.executions,
                   "captured shard results disagree with the fleet's merge");
    {
      const Span span(tr, "distinct.merge");
      wb::HllDistinctAccumulator total(*results.front().hll);
      for (std::size_t i = 1; i < results.size(); ++i) {
        total.merge(wb::HllDistinctAccumulator(*results[i].hll));
      }
      WB_REQUIRE_MSG(total.estimate() == merged.distinct_boards,
                     "sketch fold disagrees with merge_shard_results");
      tr.count("distinct.merges", static_cast<double>(results.size() - 1));
      tr.count("distinct.key_bytes",
               static_cast<double>(results.size()) *
                   static_cast<double>(std::size_t{1} << kFleetHllPrecision));
    }
  }
  put_sweep_totals(round, outcome.merged.executions,
                   outcome.merged.engine_failures,
                   outcome.merged.wrong_outputs,
                   outcome.merged.distinct_boards, popts.distinct,
                   g.node_count());
  round.totals.num("reissues", static_cast<double>(outcome.reissues));
  round.totals.num("workers_lost", static_cast<double>(workers_lost));
}

// --- Entry point ------------------------------------------------------------

std::string take_flag(std::vector<std::string>& args, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind(prefix, 0) == 0) {
      std::string value = it->substr(prefix.size());
      args.erase(it);
      return value;
    }
  }
  return "";
}

int run(std::vector<std::string> args) {
  if (args.size() == 1 && args[0] == "--provenance") {
    JsonObject prov;
    prov.str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
    prov.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    prov.str("compiler", std::string("gcc ") + __VERSION__);
#else
    prov.str("compiler", "unknown");
#endif
#ifdef NDEBUG
    prov.raw("ndebug", "true");
#else
    prov.raw("ndebug", "false");
#endif
    std::printf("%s\n", prov.text().c_str());
    return 0;
  }
  Options opt;
  const std::string threads = take_flag(args, "threads");
  opt.wbsim = take_flag(args, "wbsim");
  opt.trace_path = take_flag(args, "trace");
  WB_REQUIRE_MSG(args.size() == 3,
                 "usage: perfbench_round <workload> <graph-spec> <seed> "
                 "[--threads=T] [--wbsim=PATH] [--trace=FILE]");
  opt.workload = args[0];
  opt.graph_spec = args[1];
  opt.seed = wb::cli::parse_u64(args[2], "seed");
  if (!threads.empty()) opt.threads = wb::cli::parse_u64(threads, "threads");

  Tracer tr(!opt.trace_path.empty());
  Round round;
  {
    const Span span(tr, "round");
    if (opt.workload == "sweep_exact") {
      run_sweep_exact(opt, tr, round);
    } else if (opt.workload == "memo_grid") {
      run_memo_grid(opt, tr, round);
    } else if (opt.workload == "rmat_bfs") {
      run_rmat_bfs(opt, tr, round);
    } else if (opt.workload == "fleet_hll") {
      run_fleet_hll(opt, tr, round);
    } else {
      WB_REQUIRE_MSG(false, "unknown workload '" << opt.workload << "'");
    }
    // Printing allocates stdout's buffer, which is where the allocator pays
    // for the frees of the sweep's tables; a span keeps that in view.
    const Span report(tr, "cli.report");
    round.totals.num("t_setup", round.t_setup);
    round.totals.num("t_done", round.t_done);
    std::printf("%s\n", round.totals.text().c_str());
    std::fflush(stdout);
  }
  if (tr.enabled()) tr.write(opt.trace_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const wb::DataError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
