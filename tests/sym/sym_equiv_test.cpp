// Cross-oracle equivalence: the symbolic (BDD) backend against the
// `exhaustive:1` serial oracle. Everything the backend answers must be
// *bit-identical* — same executions, same verdict arithmetic, same
// distinct-board count, byte-equal report lines — and everything it does not
// answer must be a typed refusal.
#include <gtest/gtest.h>

#include <string>

#include "src/cli/runners.h"
#include "src/cli/spec.h"
#include "src/support/check.h"
#include "src/sym/encode.h"
#include "tests/cli/report_lines.h"

namespace wb::cli {
namespace {

RunReport serial_oracle(const char* protocol, const Graph& g) {
  ExhaustiveRunOptions opts;
  opts.threads = 1;
  return run_protocol_spec_exhaustive(protocol, g, opts);
}

void expect_symbolic_matches(const char* graph, const char* protocol) {
  const Graph g = graph_from_spec(graph);
  const RunReport oracle = serial_oracle(protocol, g);
  const RunReport sym = run_protocol_spec_symbolic(protocol, g);
  const std::string label = std::string(graph) + " " + protocol;
  EXPECT_EQ(sym.executions, oracle.executions) << label;
  EXPECT_EQ(sym.engine_failures, oracle.engine_failures) << label;
  EXPECT_EQ(sym.wrong_outputs, oracle.wrong_outputs) << label;
  EXPECT_EQ(sym.correct, oracle.correct) << label;
  EXPECT_EQ(report_lines(sym), report_lines(oracle)) << label;
  EXPECT_NE(sym.summary.find("0 schedules enumerated"), std::string::npos)
      << label << "\n" << sym.summary;
}

TEST(SymEquiv, SymbolicMatchesTheSerialEnumerator) {
  // Every SYNC-capable zoo protocol the backend answers, on small graphs
  // where the enumerator is the affordable ground truth.
  const std::pair<const char*, const char*> cases[] = {
      {"twocliques:3", "two-cliques"},   // circuit, 720 schedules
      {"switched:3", "two-cliques"},     // circuit, NO instance
      {"path:4", "mis:1"},               // circuit, 24 schedules
      {"star:5", "anon-degree"},         // circuit, converging boards
      {"cycle:6", "anon-degree"},        // circuit, all-equal degrees
  };
  for (const auto& [graph, protocol] : cases) {
    expect_symbolic_matches(graph, protocol);
  }
}

TEST(SymEquiv, AsynchronousClassesAreRefused) {
  // SIMASYNC freezes messages at activation — there is no per-round
  // transition relation, and the backend says so instead of guessing.
  EXPECT_THROW((void)run_protocol_spec_symbolic(
                   "square-oracle", graph_from_spec("grid:3x3")),
               sym::SymUnsupportedError);
  EXPECT_THROW((void)run_protocol_spec_symbolic(
                   "rand-two-cliques:11", graph_from_spec("twocliques:3")),
               sym::SymUnsupportedError);
  try {
    (void)run_protocol_spec_symbolic("square-oracle",
                                     graph_from_spec("grid:3x3"));
    FAIL() << "expected SymUnsupportedError";
  } catch (const sym::SymUnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("symbolic backend unsupported"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("SIMASYNC"), std::string::npos)
        << e.what();
  }
}

TEST(SymEquiv, ProtocolsWithoutACircuitModelAreRefused) {
  // sync-bfs is SYNC but activation-gated, with no circuit model; the
  // refusal points at the backend that answers it.
  const Graph g = graph_from_spec("cgnp:8:1/2:3");
  try {
    (void)run_protocol_spec_symbolic("sync-bfs", g);
    FAIL() << "expected SymUnsupportedError";
  } catch (const sym::SymUnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("exhaustive:1:memoize"),
              std::string::npos)
        << e.what();
  }
}

TEST(SymEquiv, UnboundedWidthsHitTheVariableCap) {
  // complete:600 needs 13800 circuit variables against the 4096 cap; the
  // refusal is typed and happens before any BDD work.
  const Graph g = graph_from_spec("complete:600");
  try {
    (void)run_protocol_spec_symbolic("two-cliques", g);
    FAIL() << "expected SymUnsupportedError";
  } catch (const sym::SymUnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("boolean variables"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wb::cli
