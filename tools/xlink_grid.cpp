// xlink_grid: cross-process experiment grid runner.
//
//   xlink_grid plan  <grid> <spool-dir>      enumerate a grid into a spool
//   xlink_grid work  <spool-dir> [--jobs N]  claim and run cells until dry
//   xlink_grid merge <spool-dir> [-o FILE]   fold shards in manifest order
//   xlink_grid run   <grid> [-o FILE]        in-process sweep (baseline)
//   xlink_grid status <spool-dir>            one line per cell
//
// `plan` once, then any number of `work` processes — on one machine or on
// several sharing the spool over a filesystem — race for cells via atomic
// rename; a killed worker's claim is re-spooled on the next claim attempt.
// `merge` refuses to emit until every shard exists, and its output is
// byte-identical to `run` of the same grid at any worker count and any
// XLINK_JOBS value (see harness/shard.h for the contract).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/grids.h"
#include "harness/shard.h"
#include "sim/thread_pool.h"

using namespace xlink;
using harness::shard::Spool;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xlink_grid plan <grid> <spool-dir>\n"
               "       xlink_grid work <spool-dir> [--jobs N]\n"
               "       xlink_grid merge <spool-dir> [-o FILE]\n"
               "       xlink_grid run <grid> [-o FILE] [--jobs N]\n"
               "       xlink_grid status <spool-dir>\n"
               "grids:");
  for (const std::string& name : harness::grids::grid_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::string out;      // -o FILE ("" = stdout)
  unsigned jobs = 0;    // --jobs N, 1..4096 (0 = XLINK_JOBS default)
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" || a == "--out") {
      if (++i >= argc) return false;
      args.out = argv[i];
    } else if (a == "--jobs" || a == "-j") {
      if (++i >= argc) return false;
      const auto jobs = sim::ThreadPool::parse_jobs(argv[i]);
      if (!jobs) return false;
      args.jobs = *jobs;
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  return true;
}

/// Writes `emit`'s output to args.out (atomically enough for CI: whole
/// string at once) or to stdout when no -o was given. A file that cannot
/// be opened or written in full is an error.
int write_output(const Args& args,
                 const std::function<void(std::ostream&)>& emit) {
  if (args.out.empty()) {
    emit(std::cout);
    return 0;
  }
  std::ostringstream os;
  emit(os);
  std::ofstream out(args.out, std::ios::trunc);
  out << os.str();
  out.close();
  if (!out) {
    std::fprintf(stderr, "xlink_grid: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

int cmd_plan(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const auto planned = harness::grids::build_grid(args.positional[0]);
  Spool spool =
      Spool::plan(planned.spec, args.positional[1], planned.precomputed);
  std::printf("planned %s: %zu cells (%zu precomputed) in %s\n",
              planned.spec.name.c_str(), spool.spec().cells.size(),
              planned.precomputed.size(), spool.dir().c_str());
  return 0;
}

int cmd_work(const Args& args) {
  if (args.positional.size() != 1) return usage();
  Spool spool(args.positional[0]);
  const auto report = harness::shard::run_worker(spool, args.jobs);
  for (const auto& [index, seconds] : report.cell_wall_seconds)
    std::printf("cell %zu (%s): %.2fs\n", index,
                spool.spec().cells[index].label.c_str(), seconds);
  std::printf("worker done: %zu cell(s) in %.2fs; spool %zu/%zu complete\n",
              report.cell_wall_seconds.size(), report.total_wall_seconds,
              spool.completed(), spool.spec().cells.size());
  return 0;
}

int cmd_merge(const Args& args) {
  if (args.positional.size() != 1) return usage();
  Spool spool(args.positional[0]);
  std::vector<std::size_t> missing;
  const auto results = spool.collect(&missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "xlink_grid: %zu cell(s) incomplete:", missing.size());
    for (std::size_t i : missing)
      std::fprintf(stderr, " %zu(%s)", i, spool.spec().cells[i].label.c_str());
    std::fprintf(stderr, "\nrun more workers, then merge again.\n");
    return 1;
  }
  return write_output(args, [&](std::ostream& os) {
    harness::shard::write_grid_results(spool.spec(), results, os);
  });
}

int cmd_run(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const auto planned = harness::grids::build_grid(args.positional[0], args.jobs);
  auto results = harness::shard::run_grid_inprocess(planned.spec, args.jobs);
  return write_output(args, [&](std::ostream& os) {
    harness::shard::write_grid_results(planned.spec, results, os);
  });
}

int cmd_status(const Args& args) {
  if (args.positional.size() != 1) return usage();
  Spool spool(args.positional[0]);
  std::size_t done = 0;
  for (std::size_t i = 0; i < spool.spec().cells.size(); ++i) {
    const char* state = "todo";
    if (spool.has_result(i)) {
      state = "done";
      ++done;
    } else if (std::ifstream(spool.claim_path(i)).good()) {
      state = "claimed";
    }
    std::printf("cell %zu %-12s %s\n", i, spool.spec().cells[i].label.c_str(),
                state);
  }
  std::printf("%zu/%zu complete\n", done, spool.spec().cells.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "work") return cmd_work(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "status") return cmd_status(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlink_grid: %s\n", e.what());
    return 1;
  }
  return usage();
}
