// Test helper: the "schedules ... / verdict ..." block of a sweep report —
// the exact bytes the CI smoke jobs diff between a backend and the
// `exhaustive:1` oracle.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/cli/runners.h"

namespace wb::cli {

inline std::string report_lines(const RunReport& r) {
  auto begin = r.summary.find("\nschedules ");
  EXPECT_NE(begin, std::string::npos) << r.summary;
  ++begin;  // past the anchoring newline
  const auto verdict = r.summary.find("verdict", begin);
  EXPECT_NE(verdict, std::string::npos) << r.summary;
  const auto end = r.summary.find('\n', verdict);
  return r.summary.substr(begin, end - begin);
}

}  // namespace wb::cli
