#include "harness.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace perfbench {

void Report::Fail(const std::string& why, uint64_t operations) {
  correct = false;
  failed += operations;
  std::cerr << "FAIL: " << why << "\n";
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

namespace {

/// Reads a "Key:   123 kB" line of /proc/self/status, in MiB.
double StatusFieldMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double CurrentRssMb() { return StatusFieldMb("VmRSS"); }
double PeakRssMb() { return StatusFieldMb("VmHWM"); }

namespace {

std::vector<int>& StartupCpus() {
  static std::vector<int> cpus;
  return cpus;
}

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // Placement only steadies the measurement: on failure the pass runs
  // wherever the scheduler puts it.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void RecordCpuMask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) StartupCpus().push_back(c);
  }
}

void CpuRotation::Next() {
  const std::vector<int>& all = StartupCpus();
  if (all.empty()) return;
  std::vector<int> pick;
  const size_t width = std::min<size_t>(std::max(width_, 1), all.size());
  for (size_t i = 0; i < width; ++i) {
    pick.push_back(all[(next_ + i) % all.size()]);
  }
  next_ = (next_ + 1) % all.size();
  PinTo(pick);
}

void UnpinCpu() {
  if (!StartupCpus().empty()) PinTo(StartupCpus());
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int Tracer::Begin(int name, int64_t step) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.step = step;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[index].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMs(size_t begin, size_t end) const {
  std::vector<int64_t> child_ns(end - begin, 0);
  for (size_t i = begin; i < end; ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= static_cast<int>(begin)) {
      child_ns[s.parent - begin] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = begin; i < end; ++i) {
    const SpanRecord& s = spans_[i];
    out[names_[s.name]] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i - begin]) /
        1e6;
  }
  return out;
}

std::map<std::string, uint64_t> Tracer::Counts(size_t begin,
                                               size_t end) const {
  std::map<std::string, uint64_t> out;
  for (size_t i = begin; i < end; ++i) ++out[names_[spans_[i].name]];
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,step\n";
  for (const SpanRecord& s : spans_) {
    out << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.step << '\n';
  }
  return static_cast<bool>(out);
}

void PrintTopSelfTime(const std::string& title, size_t begin, size_t end,
                      size_t n) {
  const Tracer& t = Tracer::Get();
  std::map<std::string, double> self = t.SelfMs(begin, end);
  std::map<std::string, uint64_t> counts = t.Counts(begin, end);
  std::vector<std::pair<double, std::string>> rows;
  double total = 0;
  for (const auto& [name, ms] : self) {
    rows.emplace_back(ms, name);
    total += ms;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::printf("top self time: %s (%zu spans, %.1f ms traced)\n",
              title.c_str(), end - begin, total);
  std::printf("  %-34s %12s %7s %10s %12s\n", "span", "self_ms", "share",
              "calls", "us/call");
  for (size_t i = 0; i < rows.size() && i < n; ++i) {
    const auto& [ms, name] = rows[i];
    const uint64_t calls = counts[name];
    std::printf("  %-34s %12.3f %6.1f%% %10llu %12.2f\n", name.c_str(), ms,
                total > 0 ? 100.0 * ms / total : 0.0,
                static_cast<unsigned long long>(calls),
                calls > 0 ? 1e3 * ms / static_cast<double>(calls) : 0.0);
  }
}

}  // namespace perfbench
