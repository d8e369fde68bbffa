/**
 * @file
 * Benchmark driver: runs one workload in a closed loop (one
 * single-threaded simulation at a time, each starting when the
 * previous one ends) and prints one JSON record per line on stdout.
 * perfbench/run.py builds and runs it, checks the records and turns
 * them into metrics; see perfbench/BENCHMARK.md.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S
 *                    [--trace] [--size full|small] [--spans FILE]
 *                    [--scratch DIR] [--plant-digest-mismatch]
 *   perfbench_driver --fingerprint
 *
 * Records, in order:
 *   {"kind":"warmup",...}  one untimed pass that warms the host
 *   {"kind":"pass",...}    one per measured pass, until S seconds
 *   {"kind":"trace",...}   --trace only: span totals and campaign
 *                          replay timings
 *   {"kind":"end",...}     peak resident memory (VmHWM)
 *
 * A pass is the workload's fixed work. Each record carries the pass's
 * host timings, its exact simulated counts, a digest of them, and
 * the names of the correctness checks it failed. With --trace every
 * other pass records spans around the calls the driver makes into
 * each layer (and around the coherence handlers and conflict checks
 * it can wrap from outside); the untraced passes in between give the
 * tracing overhead. The simulator's modelled caches start empty on
 * every pass.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/json.hh"
#include "os/tm_system.hh"
#include "spans.hh"
#include "sweep/campaign.hh"
#include "workload/microbench.hh"

using namespace logtm;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void
    add(const std::string &s)
    {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        add(uint64_t{s.size()});
    }
    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

// --------------------------------------------------------------------
// Tracing: span names and the wrappers that time layer calls in place
// --------------------------------------------------------------------

struct SpanIds
{
    uint32_t pass, buildSystem, buildWorkload, simRun, finalize,
        collect, l1Handle, dirHandle, checkRemote, localSig,
        campaign, report, setupProbe;

    explicit SpanIds(SpanRecorder &r)
        : pass(r.nameId("harness.pass")),
          buildSystem(r.nameId("harness.build_system")),
          buildWorkload(r.nameId("harness.build_workload")),
          simRun(r.nameId("sim.run")),
          finalize(r.nameId("obs.finalize_accounting")),
          collect(r.nameId("harness.collect")),
          l1Handle(r.nameId("mem.l1_handle")),
          dirHandle(r.nameId("mem.dir_handle")),
          checkRemote(r.nameId("tm.check_remote")),
          localSig(r.nameId("tm.in_any_local_sig")),
          campaign(r.nameId("sweep.campaign")),
          report(r.nameId("sweep.report")),
          setupProbe(r.nameId("harness.setup_probe"))
    {
    }
};

struct Tracer
{
    SpanRecorder rec;
    SpanIds ids;
    uint64_t checkCalls = 0;
    uint64_t checkConflicts = 0;

    explicit Tracer(size_t cap) : rec(cap), ids(rec) {}
};

/** A span named by @p id when @p tr is tracing, else a no-op. */
ScopedSpan
spanOf(Tracer *tr, uint32_t SpanIds::*id)
{
    return ScopedSpan(tr ? &tr->rec : nullptr, tr ? tr->ids.*id : 0);
}

/**
 * Conflict checker installed through MemorySystem::setConflictChecker:
 * forwards every probe to the TM engine and times it as a span.
 */
class TimedChecker : public ConflictChecker
{
  public:
    TimedChecker(TmEngine &engine, Tracer &tr) : engine_(engine), tr_(tr)
    {
    }

    ConflictVerdict
    checkRemote(CoreId core, PhysAddr block, AccessType remote_type,
                Asid req_asid, CtxId req_ctx, uint64_t req_ts) override
    {
        tr_.rec.begin(tr_.ids.checkRemote);
        const ConflictVerdict v = engine_.checkRemote(
            core, block, remote_type, req_asid, req_ctx, req_ts);
        tr_.rec.end();
        ++tr_.checkCalls;
        tr_.checkConflicts += v.conflict ? 1 : 0;
        return v;
    }

    bool
    inAnyLocalSig(CoreId core, PhysAddr block) const override
    {
        tr_.rec.begin(tr_.ids.localSig);
        const bool hit = engine_.inAnyLocalSig(core, block);
        tr_.rec.end();
        return hit;
    }

  private:
    TmEngine &engine_;
    Tracer &tr_;
};

/** Re-attach every mesh endpoint with a span around its handler. */
void
wrapCoherenceHandlers(TmSystem &sys, Tracer &tr)
{
    MemorySystem &mem = sys.mem();
    Mesh &mesh = mem.mesh();
    const SystemConfig &cfg = sys.config();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        L1Cache *l1 = &mem.l1(c);
        mesh.attach(c, [l1, &tr](const Msg &msg) {
            ScopedSpan s(&tr.rec, tr.ids.l1Handle);
            l1->handleMessage(msg);
        });
    }
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        L2Bank *bank = &mem.l2(b);
        mesh.attach(cfg.numCores + b, [bank, &tr](const Msg &msg) {
            ScopedSpan s(&tr.rec, tr.ids.dirHandle);
            bank->handleMessage(msg);
        });
    }
}

// --------------------------------------------------------------------
// One simulation
// --------------------------------------------------------------------

/**
 * Return free heap memory to the OS before a construction is timed, so
 * every construction pays the same first-touch page faults. Without
 * it glibc's heap trimming left some constructions with recycled
 * memory and others without, and the construction time of one pass
 * alternated between about 1.1 and 3.5 ms.
 */
void
trimHeap()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

/** Exact simulated counts plus host timings of one or more runs. */
struct SimStats
{
    double buildSystemS = 0, buildWorkloadS = 0, simS = 0;
    uint64_t simCycles = 0, events = 0, commits = 0, aborts = 0,
        stalls = 0, messages = 0, hops = 0, l1Hits = 0, l1Misses = 0,
        dirRequests = 0, nacks = 0, dram = 0, logRecords = 0,
        filterHits = 0, conflictsTrue = 0, conflictsFalse = 0;
    std::vector<std::string> failures;

    void
    add(const SimStats &o)
    {
        buildSystemS += o.buildSystemS;
        buildWorkloadS += o.buildWorkloadS;
        simS += o.simS;
        simCycles += o.simCycles;
        events += o.events;
        commits += o.commits;
        aborts += o.aborts;
        stalls += o.stalls;
        messages += o.messages;
        hops += o.hops;
        l1Hits += o.l1Hits;
        l1Misses += o.l1Misses;
        dirRequests += o.dirRequests;
        nacks += o.nacks;
        dram += o.dram;
        logRecords += o.logRecords;
        filterHits += o.filterHits;
        conflictsTrue += o.conflictsTrue;
        conflictsFalse += o.conflictsFalse;
        failures.insert(failures.end(), o.failures.begin(),
                        o.failures.end());
    }

    /** The simulated-statistics digest the gate compares. */
    void
    digestInto(Digest &d) const
    {
        for (const uint64_t v : {simCycles, commits, aborts, events,
                                 messages, stalls, l1Misses, nacks})
            d.add(v);
    }
};

/**
 * Construct, run and check one simulation, bracketed exactly like
 * runExperiment(): the simulation clock starts after the system and
 * workload are built and stops before cycle accounting is finalized
 * and stats are read.
 */
SimStats
runSim(const ExperimentConfig &cfg, Tracer *tr)
{
    SimStats s;

    trimHeap();
    auto t0 = Clock::now();
    std::unique_ptr<TmSystem> sys;
    {
        const ScopedSpan span = spanOf(tr, &SpanIds::buildSystem);
        sys = std::make_unique<TmSystem>(cfg.sys);
    }
    s.buildSystemS = secondsSince(t0);

    t0 = Clock::now();
    std::unique_ptr<Workload> wl;
    {
        const ScopedSpan span = spanOf(tr, &SpanIds::buildWorkload);
        wl = makeWorkload(cfg.bench, *sys, cfg.wl, cfg.mb);
    }
    s.buildWorkloadS = secondsSince(t0);

    std::unique_ptr<TimedChecker> checker;
    if (tr) {
        checker = std::make_unique<TimedChecker>(sys->engine(), *tr);
        sys->mem().setConflictChecker(checker.get());
        wrapCoherenceHandlers(*sys, *tr);
    }

    t0 = Clock::now();
    WorkloadResult run;
    {
        const ScopedSpan span = spanOf(tr, &SpanIds::simRun);
        run = wl->run();
    }
    s.simS = secondsSince(t0);

    {
        // Asserts that every context's buckets sum to elapsed cycles.
        const ScopedSpan span = spanOf(tr, &SpanIds::finalize);
        sys->finalizeCycleAccounting();
    }

    const ScopedSpan span = spanOf(tr, &SpanIds::collect);
    const StatsRegistry &st = sys->stats();
    s.simCycles = run.cycles;
    s.events = sys->sim().eventsExecuted();
    s.commits = st.counterValue("tm.commits");
    s.aborts = st.counterValue("tm.aborts");
    s.stalls = st.counterValue("tm.stalls");
    s.messages = st.counterValue("net.messages");
    s.hops = st.counterValue("net.hops");
    s.l1Hits = st.counterValue("l1.hits");
    s.l1Misses = st.counterValue("l1.misses");
    s.dirRequests = st.counterValue("l2.requests");
    s.nacks = st.counterValue("l1.nacksReceived");
    s.dram = st.counterValue("dram.accesses");
    s.logRecords = st.counterValue("tm.logRecords");
    s.filterHits = st.counterValue("tm.logFilterHits");
    s.conflictsTrue = st.counterValue("tm.conflictsTrue");
    s.conflictsFalse = st.counterValue("tm.conflictsFalse");

    const std::string name = toString(cfg.bench);
    if (run.units != cfg.wl.totalUnits)
        s.failures.push_back(name + ":units");

    uint64_t byCause = 0;
    static const std::string causePrefix = "tm.abortsByCause.";
    for (const auto &[key, ctr] : st.counters()) {
        if (key.rfind(causePrefix, 0) == 0)
            byCause += ctr.value();
    }
    if (byCause != s.aborts)
        s.failures.push_back(name + ":abortsByCause");

    const CycleAccounting &acct = sys->engine().accounting();
    uint64_t bucketSum = 0;
    for (size_t b = 0; b < numCycleBuckets; ++b)
        bucketSum += acct.totalBucket(b);
    if (!acct.finalized() ||
        bucketSum != uint64_t{acct.numContexts()} * acct.elapsed())
        s.failures.push_back(name + ":cycleAccounting");

    if (auto *micro = dynamic_cast<MicrobenchWorkload *>(wl.get())) {
        if (micro->counterSum() != micro->expectedIncrements() ||
            micro->expectedIncrements() == 0)
            s.failures.push_back(name + ":counterSum");
    }
    return s;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    bool plantDigestMismatch = false;
    std::string spansPath;
    std::string scratch = ".perfbench/scratch";
};

/** The paper's Table 1 machine: 16 cores x 2-way SMT, 4x4 mesh. */
ExperimentConfig
paperMachine(Benchmark b, uint64_t units, uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.bench = b;
    cfg.sys.signature = sigBS(2048);
    cfg.sys.seed = seed;
    cfg.wl.numThreads = cfg.sys.numContexts();
    cfg.wl.totalUnits = units;
    cfg.wl.seed = seed;
    return cfg;
}

/** The simulations one pass of a simulated workload runs. */
std::vector<ExperimentConfig>
passConfigs(const Options &o)
{
    std::vector<ExperimentConfig> cfgs;
    if (o.workload == "paper_table2") {
        // 8x defaultUnits() restores the paper's transaction counts.
        const uint64_t scale = o.small ? 1 : 8;
        for (const Benchmark b : paperBenchmarks())
            cfgs.push_back(paperMachine(b, defaultUnits(b) * scale,
                                        o.seed));
    } else if (o.workload == "smt256_wide") {
        // Its simulated work varies by about 5% from seed to seed, so
        // a pass runs it at two seeds to halve that variance.
        for (const uint64_t seed : {o.seed, o.seed + uint64_t{0x9E3779B9}}) {
            ExperimentConfig cfg = paperMachine(
                Benchmark::Microbench, o.small ? 1024 : 4096, seed);
            cfg.sys.numCores = 32;
            cfg.sys.threadsPerCore = 8;
            cfg.sys.meshCols = 8;
            cfg.sys.meshRows = 4;
            cfg.sys.l2Banks = 32;
            cfg.wl.numThreads = cfg.sys.numContexts();
            cfg.mb.numCounters = 8192;
            cfg.mb.readsPerTx = 4;
            cfg.mb.writesPerTx = 4;
            cfgs.push_back(cfg);
        }
    } else if (o.workload == "hot_counters") {
        ExperimentConfig cfg = paperMachine(
            Benchmark::Microbench, o.small ? 512 : 4096, o.seed);
        cfg.mb.numCounters = 16;
        cfg.mb.readsPerTx = 2;
        cfg.mb.writesPerTx = 8;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

/**
 * The `engines` builtin campaign (Table 2 x three engines) over 16
 * seeds from --seed. Its simulated work varies from seed to seed; 16
 * seeds per pass keep that variance well inside the bounds.
 */
sweep::SweepSpec
campaignSpec(const Options &o)
{
    sweep::SweepSpec spec;
    sweep::SweepSpec::builtin("engines", &spec);
    spec.seeds.base = o.seed;
    spec.seeds.count = 16;
    if (o.small) {
        spec.seeds.count = 1;
        spec.unitScaleDenom = 32;
    }
    return spec;
}

sweep::RunOptions
campaignRunOptions(const std::string &cacheDir)
{
    sweep::RunOptions run;
    run.jobs = 2;
    run.cacheDir = cacheDir;
    run.maxAttempts = 1;  // a failed job is a failure, not a retry
    run.label = "perfbench";
    return run;
}

/** Every field a pass record carries. */
struct PassRecord
{
    SimStats sim;
    double passS = 0;        ///< wall-clock of the whole pass
    uint64_t attempted = 0;  ///< simulations (campaign: jobs) run
    uint64_t failed = 0;     ///< of which failed a check
    std::string digest;
    std::vector<std::pair<std::string, double>> benchSimS;
    /** Campaign only. */
    uint64_t jobs = 0;
    double jobS = 0, reportS = 0;
};

/** Add @p secs to benchmark @p name's host seconds in @p acc. */
void
addBenchSeconds(std::vector<std::pair<std::string, double>> &acc,
                const std::string &name, double secs)
{
    for (auto &[n, total] : acc) {
        if (n == name) {
            total += secs;
            return;
        }
    }
    acc.emplace_back(name, secs);
}

PassRecord
runSimPass(const std::vector<ExperimentConfig> &cfgs, Tracer *tr)
{
    PassRecord p;
    const auto t0 = Clock::now();
    const ScopedSpan span = spanOf(tr, &SpanIds::pass);
    Digest d;
    for (const ExperimentConfig &cfg : cfgs) {
        const SimStats s = runSim(cfg, tr);
        d.add(toString(cfg.bench));
        s.digestInto(d);
        p.sim.add(s);
        addBenchSeconds(p.benchSimS, toString(cfg.bench), s.simS);
        ++p.attempted;
        p.failed += s.failures.empty() ? 0 : 1;
    }
    p.digest = d.hex();
    p.passS = secondsSince(t0);
    return p;
}

/** Time construction of every job's system and workload (the jobs
 *  themselves build theirs on the sweep's workers, out of reach). */
void
probeSetup(const std::vector<sweep::SweepJob> &jobs, Tracer *tr,
           SimStats *s)
{
    const ScopedSpan span = spanOf(tr, &SpanIds::setupProbe);
    for (const sweep::SweepJob &job : jobs) {
        trimHeap();
        auto t0 = Clock::now();
        TmSystem sys(job.cfg.sys);
        s->buildSystemS += secondsSince(t0);
        t0 = Clock::now();
        auto wl = makeWorkload(job.cfg.bench, sys, job.cfg.wl,
                               job.cfg.mb);
        s->buildWorkloadS += secondsSince(t0);
    }
}

struct CampaignRun
{
    sweep::CampaignResult cr;
    std::string report;
    double campaignS = 0, reportS = 0;
};

CampaignRun
runCampaignOnce(const sweep::SweepSpec &spec,
                const sweep::RunOptions &run, Tracer *tr)
{
    CampaignRun c;
    const auto t0 = Clock::now();
    {
        const ScopedSpan span = spanOf(tr, &SpanIds::campaign);
        c.cr = sweep::runCampaign(spec, run);
    }
    const auto t1 = Clock::now();
    {
        const ScopedSpan span = spanOf(tr, &SpanIds::report);
        std::ostringstream os;
        sweep::writeCampaignJson(c.cr, os);
        c.report = os.str();
    }
    c.reportS = secondsSince(t1);
    c.campaignS = secondsSince(t0);
    return c;
}

/**
 * Per-job exact counts from an in-process serial replay: the events a
 * campaign job executes are not in its result, but they are a
 * deterministic function of its config.
 */
struct CampaignReference
{
    std::vector<SimStats> jobs;
    SimStats totals;
};

CampaignReference
replayJobs(const std::vector<sweep::SweepJob> &jobs, Tracer *tr)
{
    CampaignReference ref;
    for (const sweep::SweepJob &job : jobs) {
        ref.jobs.push_back(runSim(job.cfg, tr));
        ref.totals.add(ref.jobs.back());
    }
    return ref;
}

PassRecord
runCampaignPass(const sweep::SweepSpec &spec,
                const CampaignReference &ref, Tracer *tr)
{
    PassRecord p;
    const CampaignRun c =
        runCampaignOnce(spec, campaignRunOptions(""), tr);
    p.passS = c.campaignS;
    p.reportS = c.reportS;
    p.jobs = c.cr.jobs.size();
    p.attempted = p.jobs;
    probeSetup(c.cr.jobs, tr, &p.sim);

    Digest d;
    d.add(c.report);
    p.digest = d.hex();

    for (size_t i = 0; i < c.cr.outcomes.size(); ++i) {
        const sweep::RunOutcome &out = c.cr.outcomes[i];
        const ExperimentResult &r = out.result;
        const SimStats &want = ref.jobs[i];
        // A job fails if it did not complete or if it disagrees with
        // the serial replay of the same config.
        const bool ok = out.ok && !out.fromCache &&
            r.cycles == want.simCycles && r.commits == want.commits &&
            r.aborts == want.aborts && want.failures.empty();
        p.failed += ok ? 0 : 1;
        p.jobS += r.hostSeconds;
        p.sim.simCycles += r.cycles;
        p.sim.commits += r.commits;
        p.sim.aborts += r.aborts;
        p.sim.stalls += r.stalls;
        p.sim.logRecords += r.logRecords;
        p.sim.filterHits += r.logFilterHits;
        p.sim.conflictsTrue += r.conflictsTrue;
        p.sim.conflictsFalse += r.conflictsFalse;
        addBenchSeconds(p.benchSimS, toString(c.cr.jobs[i].cfg.bench),
                        r.hostSeconds);
    }
    // Counts a job result does not carry come from the serial replay;
    // the cycles, commits and aborts checked above tie the two.
    p.sim.events = ref.totals.events;
    p.sim.messages = ref.totals.messages;
    p.sim.hops = ref.totals.hops;
    p.sim.l1Hits = ref.totals.l1Hits;
    p.sim.l1Misses = ref.totals.l1Misses;
    p.sim.dirRequests = ref.totals.dirRequests;
    p.sim.nacks = ref.totals.nacks;
    p.sim.dram = ref.totals.dram;
    p.sim.simS = p.jobS;
    return p;
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

void
writePass(const char *kind, uint32_t index, bool traced,
          const PassRecord &p)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", std::string(kind));
    w.field("index", uint64_t{index});
    w.field("traced", traced);
    w.field("pass_s", p.passS);
    w.field("build_system_s", p.sim.buildSystemS);
    w.field("build_workload_s", p.sim.buildWorkloadS);
    w.field("sim_s", p.sim.simS);
    w.field("attempted", p.attempted);
    w.field("failed", p.failed);
    w.field("digest", p.digest);
    const std::pair<const char *, uint64_t> counts[] = {
        {"sim_cycles", p.sim.simCycles}, {"events", p.sim.events},
        {"commits", p.sim.commits},      {"aborts", p.sim.aborts},
        {"stalls", p.sim.stalls},        {"messages", p.sim.messages},
        {"hops", p.sim.hops},            {"l1_hits", p.sim.l1Hits},
        {"l1_misses", p.sim.l1Misses},   {"dir_requests", p.sim.dirRequests},
        {"nacks", p.sim.nacks},          {"dram", p.sim.dram},
        {"log_records", p.sim.logRecords},
        {"filter_hits", p.sim.filterHits},
        {"conflicts_true", p.sim.conflictsTrue},
        {"conflicts_false", p.sim.conflictsFalse},
        {"jobs", p.jobs},
    };
    for (const auto &[k, v] : counts)
        w.field(k, v);
    w.field("job_s", p.jobS);
    w.field("report_s", p.reportS);
    w.key("bench_sim_s");
    w.beginObject();
    for (const auto &[name, secs] : p.benchSimS)
        w.field(name, secs);
    w.endObject();
    w.key("failures");
    w.beginArray();
    for (const std::string &f : p.sim.failures)
        w.value(f);
    w.endArray();
    w.endObject();
    std::cout << os.str() << "\n" << std::flush;
}

void
writeTrace(const Tracer &tr, const std::string &spansPath,
           uint64_t checkCalls, uint64_t checkConflicts,
           double checkNs, double warmReplayS, bool replayOk)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", std::string("trace"));
    w.key("spans");
    w.beginObject();
    for (uint32_t i = 0; i < tr.rec.names().size(); ++i) {
        const SpanRecorder::Totals &t = tr.rec.totals(i);
        w.key(tr.rec.names()[i]);
        w.beginObject();
        w.field("count", t.count);
        w.field("total_s", static_cast<double>(t.totalNs) * 1e-9);
        w.field("self_s", static_cast<double>(t.selfNs()) * 1e-9);
        w.endObject();
    }
    w.endObject();
    w.field("stored_spans", uint64_t{tr.rec.spans().size()});
    w.field("dropped_spans", tr.rec.dropped());
    w.field("spans_file", spansPath);
    w.field("check_remote_calls", checkCalls);
    w.field("check_remote_conflicts", checkConflicts);
    w.field("check_remote_ns", checkNs);
    w.field("warm_replay_s", warmReplayS);
    w.field("replay_ok", replayOk);
    w.endObject();
    std::cout << os.str() << "\n" << std::flush;
}

/**
 * Peak resident set of this process in kB: VmHWM, which starts afresh
 * at exec (ru_maxrss would also carry the launching process's peak).
 */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S [--trace] [--size full|small]\n"
                 "                        [--spans FILE] [--scratch DIR] "
                 "[--plant-digest-mismatch]\n"
                 "       perfbench_driver --fingerprint\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--fingerprint") {
            std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                        PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
            return 0;
        } else if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--trace") {
            o.trace = true;
        } else if (arg == "--size") {
            o.small = next() == "small";
        } else if (arg == "--spans") {
            o.spansPath = next();
        } else if (arg == "--scratch") {
            o.scratch = next();
        } else if (arg == "--plant-digest-mismatch") {
            o.plantDigestMismatch = true;
        } else {
            return usage();
        }
    }

    const bool campaign = o.workload == "campaign_engines";
    const std::vector<ExperimentConfig> cfgs = passConfigs(o);
    if (!campaign && cfgs.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }

    // Spans of the wrapped per-message calls are many; keep at most
    // this many in memory (8 MB) and count the rest in the totals.
    std::unique_ptr<Tracer> tracer;
    if (o.trace)
        tracer = std::make_unique<Tracer>(size_t{1} << 18);

    const sweep::SweepSpec spec = campaign ? campaignSpec(o)
                                           : sweep::SweepSpec{};
    CampaignReference ref;
    auto runPass = [&](Tracer *tr) {
        return campaign ? runCampaignPass(spec, ref, tr)
                        : runSimPass(cfgs, tr);
    };

    // Warm-up: one untimed pass. The campaign also replays its jobs
    // serially here, for their event counts and a cross-check.
    // A traced campaign counts conflict checks during the replay, in
    // a recorder of its own: the jobs of the timed campaign run on
    // the sweep's workers, where no call can be wrapped.
    std::unique_ptr<Tracer> replayTracer;
    if (campaign && tracer)
        replayTracer = std::make_unique<Tracer>(0);
    if (campaign)
        ref = replayJobs(sweep::expand(spec), replayTracer.get());
    const PassRecord warm = runPass(nullptr);
    writePass("warmup", 0, false, warm);

    // A traced run needs at least one traced and one untraced pass;
    // the planted mismatch needs a second pass to land in.
    const uint32_t minPasses = (tracer || o.plantDigestMismatch) ? 2 : 1;
    const auto start = Clock::now();
    uint32_t index = 0;
    while (index < minPasses || secondsSince(start) < o.seconds) {
        ++index;
        // In a traced run odd passes are traced, even ones are not.
        Tracer *tr = (tracer && index % 2 == 1) ? tracer.get() : nullptr;
        if (tr)
            tr->rec.setRun(index);
        PassRecord p = runPass(tr);
        if (o.plantDigestMismatch && index == 2)
            p.digest = "planted-" + p.digest;
        writePass("pass", index, tr != nullptr, p);
    }

    if (tracer) {
        double warmS = 0;
        bool replayOk = true;
        if (campaign) {
            // Populate a fresh result cache, then replay from it.
            const std::string dir = o.scratch + "/campaign-cache";
            std::filesystem::remove_all(dir);
            const CampaignRun cold =
                runCampaignOnce(spec, campaignRunOptions(dir), nullptr);
            const CampaignRun warmRun =
                runCampaignOnce(spec, campaignRunOptions(dir), nullptr);
            warmS = warmRun.campaignS;
            replayOk = cold.report == warmRun.report &&
                warmRun.cr.cachedCount() == warmRun.cr.jobs.size() &&
                cold.cr.failedCount() == 0;
            std::filesystem::remove_all(dir);
        }
        if (!o.spansPath.empty() && !tracer->rec.dump(o.spansPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.spansPath.c_str());
            return 1;
        }
        // Conflict-check counts of one pass.
        const Tracer &counted = replayTracer ? *replayTracer : *tracer;
        const uint64_t perPass = replayTracer ? 1 : (index + 1) / 2;
        const SpanRecorder::Totals &checks =
            counted.rec.totals(counted.ids.checkRemote);
        const double checkNs = checks.count
            ? static_cast<double>(checks.totalNs) /
                static_cast<double>(checks.count)
            : 0.0;
        writeTrace(*tracer, o.spansPath, counted.checkCalls / perPass,
                   counted.checkConflicts / perPass, checkNs, warmS,
                   replayOk);
    }

    std::printf("{\"kind\":\"end\",\"passes\":%u,\"peak_rss_mb\":%.3f}\n",
                index, peakRssKb() / 1024.0);
    return 0;
}
