// The programs whose emitted code is pinned under tests/golden/: the ten
// paper apps plus tests/golden/constructs.lucid, which uses the language
// constructs the apps never do (unary operators, a 64-bit param fed to
// `hash`, a two-conjunct guard, a located generate). Suites that take every
// paper app as input can take this list instead.
#pragma once

#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "support/fs.hpp"

namespace lucid {

inline const std::vector<apps::AppSpec>& golden_programs() {
  static const std::vector<apps::AppSpec> programs = [] {
    std::vector<apps::AppSpec> all = apps::all_apps();
    apps::AppSpec constructs;
    constructs.key = "constructs";
    constructs.source =
        support::read_file(std::string(LUCID_SOURCE_DIR) +
                           "/tests/golden/constructs.lucid")
            .value_or("");
    all.push_back(std::move(constructs));
    return all;
  }();
  return programs;
}

}  // namespace lucid
