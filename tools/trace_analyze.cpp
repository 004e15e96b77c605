// trace_analyze: causal provenance & per-stage latency attribution.
//
//   trace_analyze run.rivtrace            # human-readable report
//   trace_analyze --json run.rivtrace    # same content as one JSON doc
//   trace_analyze --check run.rivtrace   # health verdict (CI gate)
//   trace_analyze --audit run.rivtrace   # Byzantine integrity audit
//
// Reconstructs, for every sensor event in a flight-recorder trace, its
// causal chain through the pipeline (generated -> adapter_rx -> ingested
// -> delivered -> logic_fired -> command_sent -> actuated), then reports
// where the time went: per-stage latency distributions, end-to-end
// distributions, orphaned events with explanations, duplicate deliveries,
// and tail events attributed to the chaos faults that delayed them.
//
// --check exits 0 when the trace is causally healthy (no unexplained
// orphans, no duplicate deliveries within a promotion epoch, stage
// timestamps monotone per chain) and 1 otherwise, printing each problem.
//
// --audit switches to the DESIGN §12 integrity audit: every kByzantine
// attack marker the chaos injector stamped must be matched by detector
// evidence (a kTamper rejection, the byzantine drop record, or proof the
// frame died in the network first), and no detector evidence may be left
// unattributed. Combines with --check (exit 1 unless every attack is
// accounted for — on a non-adversarial golden trace that means zero
// attacks, zero tamper verdicts) and with --json.
//
// Exit status: 0 ok; 1 check failed; 2 usage / unreadable file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/provenance.hpp"
#include "trace/trace.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json] [--check] [--audit] [--grace SECONDS] A.rivtrace\n"
      "  --json            emit the report as a JSON document\n"
      "  --check           verdict only: exit 1 on unexplained orphans,\n"
      "                    duplicate deliveries, or stage-order violations\n"
      "  --audit           Byzantine integrity audit: match every injected\n"
      "                    attack marker to detector evidence; with --check\n"
      "                    exit 1 on any undetected or unattributed finding\n"
      "  --grace SECONDS   in-flight window before trace end within which\n"
      "                    undelivered events are not orphans (default 5)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool check_only = false;
  bool audit_mode = false;
  riv::trace::AnalyzeOptions opt;
  const char* path = nullptr;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check_only = true;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      audit_mode = true;
    } else if (std::strcmp(argv[i], "--grace") == 0) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      opt.grace = riv::seconds_f(std::atof(argv[++i]));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    usage(argv[0]);
    return 2;
  }

  riv::trace::Recorder rec;
  std::string err;
  if (!riv::trace::Recorder::load(path, &rec, &err)) {
    std::fprintf(stderr, "%s: %s\n", path, err.c_str());
    return 2;
  }

  if (audit_mode) {
    riv::trace::Audit au = riv::trace::audit(rec.records());
    if (check_only) {
      riv::trace::CheckResult res = riv::trace::check(au);
      if (res.ok) {
        std::printf("%s: AUDIT OK (%zu attacks: %zu detected, %zu lost in "
                    "network, 0 missed, 0 unattributed)\n",
                    path, au.attacks, au.detected, au.lost);
        return 0;
      }
      std::printf("%s: AUDIT FAILED (%zu problems)\n", path,
                  res.problems.size());
      for (const std::string& p : res.problems)
        std::printf("  %s\n", p.c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", riv::trace::render_json(au).c_str());
    } else {
      std::printf("%s: hash %s\n", path, rec.digest().c_str());
      std::printf("%s", riv::trace::render(au).c_str());
    }
    return 0;
  }

  riv::trace::Analysis a = riv::trace::analyze(rec, opt);

  if (check_only) {
    riv::trace::CheckResult res = riv::trace::check(a);
    if (res.ok) {
      std::printf("%s: OK (%zu chains, %d stages, %zu orphans explained, "
                  "0 duplicates)\n",
                  path, a.n_chains, a.stages_present(), a.orphans.size());
      return 0;
    }
    std::printf("%s: FAILED (%zu problems)\n", path, res.problems.size());
    for (const std::string& p : res.problems)
      std::printf("  %s\n", p.c_str());
    return 1;
  }

  if (json) {
    std::printf("%s\n", riv::trace::render_json(a).c_str());
  } else {
    std::printf("%s: hash %s\n", path, rec.digest().c_str());
    std::printf("%s", riv::trace::render(a).c_str());
  }
  return 0;
}
