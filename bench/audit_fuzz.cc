// Differential fuzz driver (DESIGN.md, "Differential auditing"): runs
// seeded random audit cases - registry operators and pattern queries
// under mutated schedules - against the denotational oracle, minimizes
// any failure to a reproducer, and, given --out, writes machine-readable
// throughput JSON (the committed BENCH_audit.json).
//
//   audit_fuzz [--seed=N] [--iters=N] [--minimize] [--corpus=DIR]
//              [--replay=DIR] [--out=FILE] [--verbose]
//
//   --seed/--iters  the seeded case range to run (default 1 x 200);
//   --minimize      shrink failing cases before reporting (default on;
//                   --minimize=0 reports raw failures);
//   --corpus=DIR    write minimized reproducers to DIR as .case files;
//   --replay=DIR    first replay every .case file in DIR (regression
//                   corpus) and count its failures too;
//   --out=FILE      write the metrics JSON to FILE (default: none);
//   exit status     0 iff every replayed and generated case passed.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/corpus.h"
#include "audit/generate.h"
#include "audit/minimize.h"
#include "cli.h"
#include "common/format.h"

namespace cedr {
namespace audit {
namespace {

using bench::ParseFlag;
using bench::ParseUint;

using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t seed = 1;
  uint64_t iters = 200;
  bool minimize = true;
  bool verbose = false;
  std::string corpus_dir;
  std::string replay_dir;
  std::string out;  // empty: no JSON
};

void Usage(std::ostream& os) {
  os << "usage: audit_fuzz [--seed=N] [--iters=N] [--minimize[=0]]\n"
        "                  [--corpus=DIR] [--replay=DIR]\n"
        "                  [--out=FILE] [--verbose]\n"
        "Runs seeded audit cases against the denotational oracle and\n"
        "writes throughput metrics to --out; exit 0 iff every case "
        "passed.\n";
}

std::string DescribeCase(const AuditCase& c) {
  std::string target = c.single_op() ? StrCat("op=", c.op_name)
                                     : StrCat("query=", c.query_text);
  return StrCat(c.name, " [", target, " spec=", c.spec.ToString(),
                " mode=", ExecModeToString(c.schedule.mode), "]");
}

int RunMain(const Options& opts) {
  uint64_t failures = 0;
  uint64_t passed = 0;
  uint64_t skipped = 0;
  uint64_t replay_failures = 0;
  uint64_t replayed = 0;

  // Phase 1: regression corpus replay.
  if (!opts.replay_dir.empty()) {
    for (const std::string& path : ListCorpus(opts.replay_dir)) {
      auto case_r = LoadCase(path);
      if (!case_r.ok()) {
        std::cerr << "CORPUS PARSE FAILURE " << path << ": "
                  << case_r.status().ToString() << "\n";
        ++replay_failures;
        continue;
      }
      AuditCase c = std::move(case_r).ValueUnsafe();
      AuditResult r = DifferentialAuditor::Run(c);
      ++replayed;
      if (!r.pass) {
        ++replay_failures;
        std::cerr << "CORPUS FAILURE " << DescribeCase(c) << "\n"
                  << r.detail << "\n";
      } else if (opts.verbose) {
        std::cout << "corpus ok: " << DescribeCase(c) << "\n";
      }
    }
  }

  // Phase 2: seeded fuzz.
  auto start = Clock::now();
  for (uint64_t i = 0; i < opts.iters; ++i) {
    AuditCase c = GenerateCase(opts.seed, i);
    AuditResult r = DifferentialAuditor::Run(c);
    if (r.pass) {
      ++passed;
      if (r.skipped_equality) ++skipped;
      if (opts.verbose) {
        std::cout << "ok: " << DescribeCase(c)
                  << (r.skipped_equality ? " (equality skipped: weak run "
                                           "lost corrections)"
                                         : "")
                  << "\n";
      }
      continue;
    }
    ++failures;
    std::cerr << "FAILURE " << DescribeCase(c) << "\n" << r.detail << "\n";
    AuditCase reproducer = c;
    if (opts.minimize) {
      MinimizeResult m = Minimize(c);
      reproducer = m.minimized;
      std::cerr << "minimized " << m.groups_before << " -> "
                << m.groups_after << " event groups in " << m.probes
                << " probes\n";
    }
    if (!opts.corpus_dir.empty()) {
      std::string path =
          StrCat(opts.corpus_dir, "/", reproducer.name, ".case");
      Status st = SaveCase(reproducer, path);
      if (st.ok()) {
        std::cerr << "reproducer written to " << path << "\n";
      } else {
        std::cerr << "cannot write reproducer: " << st.ToString() << "\n";
      }
    } else {
      std::cerr << "reproducer:\n" << FormatCase(reproducer);
    }
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  double per_sec =
      elapsed > 0 ? static_cast<double>(opts.iters) / elapsed : 0.0;

  std::cout << "audit_fuzz: " << passed << "/" << opts.iters
            << " generated cases passed (" << skipped
            << " weak runs made no equality claim), " << failures
            << " failed";
  if (replayed > 0) {
    std::cout << "; corpus replay " << (replayed - replay_failures) << "/"
              << replayed;
  }
  std::cout << "; " << FormatDouble(per_sec, 1) << " cases/sec\n";

  if (!opts.out.empty()) {
    std::ofstream json(opts.out, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"audit_fuzz\",\n"
         << "  \"seed\": " << opts.seed << ",\n"
         << "  \"iters\": " << opts.iters << ",\n"
         << "  \"passed\": " << passed << ",\n"
         << "  \"failed\": " << failures << ",\n"
         << "  \"equality_skipped\": " << skipped << ",\n"
         << "  \"corpus_replayed\": " << replayed << ",\n"
         << "  \"corpus_failed\": " << replay_failures << ",\n"
         << "  \"seconds\": " << FormatDouble(elapsed, 3) << ",\n"
         << "  \"cases_per_sec\": " << FormatDouble(per_sec, 1) << "\n"
         << "}\n";
  }
  return failures + replay_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace audit
}  // namespace cedr

int main(int argc, char** argv) {
  cedr::audit::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    uint64_t parsed = 0;
    if (cedr::audit::ParseFlag(argv[i], "seed", &value)) {
      if (!cedr::audit::ParseUint(value, &parsed)) {
        std::cerr << "audit_fuzz: malformed value for --seed: '" << value
                  << "'\n";
        cedr::audit::Usage(std::cerr);
        return 2;
      }
      opts.seed = parsed;
    } else if (cedr::audit::ParseFlag(argv[i], "iters", &value)) {
      if (!cedr::audit::ParseUint(value, &parsed)) {
        std::cerr << "audit_fuzz: malformed value for --iters: '" << value
                  << "'\n";
        cedr::audit::Usage(std::cerr);
        return 2;
      }
      opts.iters = parsed;
    } else if (cedr::audit::ParseFlag(argv[i], "minimize", &value)) {
      opts.minimize = value != "0";
    } else if (cedr::audit::ParseFlag(argv[i], "corpus", &value)) {
      opts.corpus_dir = value;
    } else if (cedr::audit::ParseFlag(argv[i], "replay", &value)) {
      opts.replay_dir = value;
    } else if (cedr::audit::ParseFlag(argv[i], "out", &value)) {
      opts.out = value;
    } else if (cedr::audit::ParseFlag(argv[i], "verbose", &value)) {
      opts.verbose = value != "0";
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      cedr::audit::Usage(std::cout);
      return 0;
    } else {
      std::cerr << "audit_fuzz: unknown flag: " << argv[i] << "\n";
      cedr::audit::Usage(std::cerr);
      return 2;
    }
  }
  return cedr::audit::RunMain(opts);
}
