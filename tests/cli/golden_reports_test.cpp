// Single-run report bytes, pinned. tests/wb/data/bfs_reports.golden holds
// the full stdout of a few `wbsim GRAPH PROTOCOL ADVERSARY` runs, each
// under a `$ wbsim ...` header line: sync-bfs on RMAT graphs and eob-bfs on
// an even-odd-bipartite forest, the long single executions where the
// engine's frontier round and the protocols' incremental board views do
// all the work. This test replays every command in-process, through the
// calls wbsim's default command makes, and requires every line to match,
// `activation-waves` and `mean-latency` included.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/runners.h"
#include "src/cli/spec.h"

namespace wb::cli {
namespace {

struct GoldenRun {
  std::vector<std::string> args;  // graph, protocol, adversary
  std::string expected;
};

std::vector<GoldenRun> read_golden(const std::string& name) {
  const std::string path = std::string(WB_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  const std::string header = "$ wbsim ";
  std::vector<GoldenRun> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(header, 0) == 0) {
      GoldenRun& run = runs.emplace_back();
      std::istringstream words(line.substr(header.size()));
      std::string word;
      while (words >> word) run.args.push_back(word);
    } else {
      EXPECT_FALSE(runs.empty()) << "output before the first command: " << line;
      if (!runs.empty()) runs.back().expected += line + "\n";
    }
  }
  return runs;
}

TEST(GoldenReports, SingleRunReportsMatchTheCommittedBytes) {
  const std::vector<GoldenRun> runs = read_golden("bfs_reports.golden");
  ASSERT_EQ(runs.size(), 4u);
  for (const GoldenRun& run : runs) {
    ASSERT_EQ(run.args.size(), 3u);
    const Graph g = graph_from_spec(run.args[0]);
    const auto adversary = adversary_from_spec(run.args[2], g);
    const RunReport report = run_protocol_spec(run.args[1], g, *adversary);
    // wbsim's print_report: the summary, then the result line.
    const std::string printed = report.summary + "result     " +
                                (report.correct ? "PASS" : "FAIL") + "\n";
    EXPECT_EQ(printed, run.expected)
        << "wbsim " << run.args[0] << " " << run.args[1] << " "
        << run.args[2];
  }
}

}  // namespace
}  // namespace wb::cli
