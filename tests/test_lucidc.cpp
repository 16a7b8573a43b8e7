// The lucidc command line: one spelling per flag. The one-release aliases
// (--p4 for --emit=p4, --check for --stop-after=sema) and the removed
// --native-dispatch are usage errors now; their spelled-out forms work.
//
// Runs the real lucidc binary as a child process (an argv, no shell).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "support/process.hpp"

namespace lucid {
namespace {

using support::ProcessResult;

constexpr std::chrono::seconds kChildTimeout{60};

ProcessResult lucidc(const std::string& flag) {
  return support::run_process(
      {LUCIDC_PATH, flag,
       std::string(LUCID_SOURCE_DIR) + "/examples/rate_meter.lucid"},
      kChildTimeout);
}

TEST(Lucidc, RemovedAliasesAreUnknownOptions) {
  for (const std::string flag : {"--p4", "--check", "--native-dispatch=goto"}) {
    SCOPED_TRACE(flag);
    const ProcessResult r = lucidc(flag);
    ASSERT_TRUE(r.started) << r.error;
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown option '" + flag + "'"), std::string::npos)
        << r.err;
  }
}

TEST(Lucidc, SpelledOutFormsStillWork) {
  const ProcessResult p4 = lucidc("--emit=p4");
  ASSERT_TRUE(p4.started) << p4.error;
  EXPECT_EQ(p4.exit_code, 0) << p4.err;
  EXPECT_NE(p4.out.find("Switch(pipe) main;"), std::string::npos);

  const ProcessResult sema = lucidc("--stop-after=sema");
  ASSERT_TRUE(sema.started) << sema.error;
  EXPECT_EQ(sema.exit_code, 0) << sema.err;
}

}  // namespace
}  // namespace lucid
