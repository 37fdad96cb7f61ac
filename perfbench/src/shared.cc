#include <algorithm>

#include "workloads.h"

namespace perfbench {

using cedr::ConsistencySpec;

const std::vector<QueryDef>& PatternQueries() {
  static const std::vector<QueryDef> queries = [] {
    const std::string cidr07 =
        "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 80),\n"
        "            RESTART AS z, 12)\n"
        "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
        "      {x.Machine_Id = z.Machine_Id}";
    const std::string buildseq =
        "WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 60)\n"
        "WHERE {x.Machine_Id = y.Machine_Id} AND {x.Build = 'build3'}\n"
        "OUTPUT x.Machine_Id AS machine, y.Build AS build";
    const std::string all =
        "WHEN ALL(INSTALL AS x, SHUTDOWN AS y, 30)\n"
        "WHERE {x.Machine_Id = y.Machine_Id}";
    const std::string atleast =
        "WHEN ATLEAST(2, SHUTDOWN AS y, RESTART AS z, 10)\n"
        "WHERE {y.Machine_Id = z.Machine_Id}";
    const std::string cancel =
        "WHEN CANCEL-WHEN(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 60),\n"
        "                 RESTART AS z)\n"
        "WHERE {x.Machine_Id = y.Machine_Id}";
    const ConsistencySpec strong = ConsistencySpec::Strong();
    const ConsistencySpec middle = ConsistencySpec::Middle();
    const ConsistencySpec weak = ConsistencySpec::Weak(60);
    // The EVENT name is the query's benchmark name, so one shape can be
    // registered at several levels in one service.
    auto def = [](std::string name, const std::string& when,
                  ConsistencySpec spec) {
      std::string text = "EVENT " + name + "\n" + when;
      return QueryDef{std::move(name), std::move(text), spec};
    };
    return std::vector<QueryDef>{
        def("cidr07_strong", cidr07, strong),
        def("cidr07_middle", cidr07, middle),
        def("cidr07_weak", cidr07, weak),
        def("buildseq_strong", buildseq, strong),
        def("buildseq_middle", buildseq, middle),
        def("all_middle", all, middle),
        def("atleast_weak", atleast, weak),
        def("cancel_strong", cancel, strong),
    };
  }();
  return queries;
}

const std::vector<std::string>& RelationalPlanNames() {
  static const std::vector<std::string> names = {
      "window_groupby_strong", "window_groupby_middle",
      "select_project_strong", "select_project_middle",
      "join_strong",           "join_middle",
      "union_strong",          "union_middle",
  };
  return names;
}

std::vector<std::span<const cedr::TypedMessage>> Steps(
    const std::vector<cedr::TypedMessage>& merged, size_t batch) {
  std::vector<std::span<const cedr::TypedMessage>> steps;
  for (size_t i = 0; i < merged.size(); i += batch) {
    steps.emplace_back(merged.data() + i, std::min(batch, merged.size() - i));
  }
  return steps;
}

namespace {

double Sum(const std::vector<double>& xs) {
  double total = 0;
  for (double x : xs) total += x;
  return total;
}

}  // namespace

void PassTimes::Publish(Report* report) const {
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("events_per_s",
              events * static_cast<double>(serial_s.size()) / Sum(serial_s),
              "1/s");
  std::vector<double> steps;
  for (const std::vector<double>& pass : step_ms) {
    steps.insert(steps.end(), pass.begin(), pass.end());
  }
  report->Set("step_p50_ms", Percentile(steps, 0.50), "ms");
  report->Set("step_p99_ms", Percentile(steps, 0.99), "ms");
  report->Set("mem_peak_mb", mem_peak_mb, "MiB");
  report->Set("recover_s",
              Sum(recover_s) / static_cast<double>(recover_s.size()), "s");
}

double PassTimes::Par2EventsPerS() const {
  return events * static_cast<double>(par2_s.size()) / Sum(par2_s);
}

void LayerSamples::AddSelfMs(size_t begin, size_t end) {
  for (const auto& [name, ms] : Tracer::Get().SelfMs(begin, end)) {
    Add(name, ms);
  }
}

double LayerSamples::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

}  // namespace perfbench
