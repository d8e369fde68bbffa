/**
 * @file
 * Per-layer fixtures: host ns per operation for the public functions
 * of each simulator layer on the access path, measured in isolation
 * with Google Benchmark. Each fixture is registered under the name of
 * the per-layer metric it produces and reports the number of
 * operations it ran as items, so ns/op = 1e9 / items_per_second.
 *
 *   perfbench_layers --scratch DIR [Google Benchmark flags]
 *
 * DIR receives the ResultStore fixture's files. perfbench/run.py runs
 * this binary in traced runs; see perfbench/BENCHMARK.md for what each
 * fixture covers.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "mem/data_store.hh"
#include "mem/memory_system.hh"
#include "net/mesh.hh"
#include "obs/cycle_accounting.hh"
#include "obs/json.hh"
#include "os/tm_system.hh"
#include "sig/signature_factory.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sweep/json_value.hh"
#include "sweep/result_store.hh"
#include "tm/log_filter.hh"
#include "tm/tx_log.hh"

using namespace logtm;

namespace {

std::string scratchDir = ".perfbench/scratch";

/** Deterministic 64-bit LCG, shared by every fixture's input. */
struct Lcg
{
    uint64_t s = 0x2545F4914F6CDD1Dull;
    uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 17;
    }
};

PhysAddr
blockAt(uint64_t i)
{
    return 0x100000 + i * blockBytes;
}

// ---- sim: event queue ----------------------------------------------

/** Self-rescheduling chain: each event schedules its successor. */
struct Chain
{
    EventQueue *q;
    Lcg *rng;
    void
    operator()() const
    {
        q->scheduleIn(1 + rng->next() % 100, *this,
                      static_cast<EventPriority>(rng->next() % 3));
    }
};

void
queueSchedulePop(benchmark::State &state)
{
    EventQueue q;
    Lcg rng;
    for (int i = 0; i < 4096; ++i)
        q.scheduleIn(1 + rng.next() % 200, Chain{&q, &rng});
    for (auto _ : state)
        q.step();  // pop one event; it schedules one: 4096 in flight
    state.SetItemsProcessed(state.iterations());
}

// ---- net: mesh -----------------------------------------------------

void
meshSend(benchmark::State &state)
{
    EventQueue q;
    StatsRegistry stats;
    const SystemConfig cfg;
    Mesh mesh(q, stats, cfg);
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
        mesh.attach(n, [](const Msg &) {});
    Lcg rng;
    uint64_t sent = 0;
    for (auto _ : state) {
        Msg m;
        m.src = static_cast<NodeId>(rng.next() % mesh.numNodes());
        m.dst = static_cast<NodeId>(rng.next() % mesh.numNodes());
        m.addr = blockAt(rng.next() % 4096);
        mesh.send(m);
        if (++sent % 4096 == 0) {
            state.PauseTiming();
            q.run();  // deliver the batch outside the timed region
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

// ---- mem: L1, directory, DataStore --------------------------------

L1Cache::Request
request(AccessType type)
{
    L1Cache::Request req;
    req.ctx = 0;
    req.type = type;
    req.done = [](const MemAccessResult &) {};
    return req;
}

void
l1Hit(benchmark::State &state)
{
    Simulator sim;
    const SystemConfig cfg;
    MemorySystem mem(sim, cfg);
    for (uint64_t i = 0; i < 64; ++i)
        mem.access(0, blockAt(i), request(AccessType::Read));
    sim.queue().run();
    uint64_t n = 0;
    for (auto _ : state) {
        mem.access(0, blockAt(n % 64), request(AccessType::Read));
        if (++n % 1024 == 0) {
            state.PauseTiming();
            sim.queue().run();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/** The access() call of an L1 miss: MSHR allocation and request. */
void
l1Miss(benchmark::State &state)
{
    Simulator sim;
    const SystemConfig cfg;
    MemorySystem mem(sim, cfg);
    uint64_t n = 0;
    for (auto _ : state) {
        // 64K distinct blocks (4 MB): never in the 32 KB L1 when
        // revisited, resident in the 8 MB L2 after the first lap.
        mem.access(static_cast<CoreId>(n % cfg.numCores),
                   blockAt(n % 65536), request(AccessType::Read));
        if (++n % 16 == 0) {
            state.PauseTiming();
            sim.queue().run();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * Directory controller: L2Bank::handleMessage for GETS (reads) or
 * GETM (writes), timed in place through a wrapped mesh handler while
 * cores miss on a rotating set of blocks (some forwarded to an owner,
 * some fetched from DRAM).
 */
void
dirRequest(benchmark::State &state, AccessType type)
{
    Simulator sim;
    const SystemConfig cfg;
    MemorySystem mem(sim, cfg);
    const MsgType want =
        type == AccessType::Read ? MsgType::GetS : MsgType::GetM;
    double timed = 0;
    uint64_t handled = 0;
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        L2Bank *bank = &mem.l2(b);
        mem.mesh().attach(cfg.numCores + b, [&, bank](const Msg &msg) {
            if (msg.type != want) {
                bank->handleMessage(msg);
                return;
            }
            const auto t0 = std::chrono::steady_clock::now();
            bank->handleMessage(msg);
            timed += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
            ++handled;
        });
    }
    uint64_t n = 0;
    for (auto _ : state) {
        timed = 0;
        mem.access(static_cast<CoreId>(n % cfg.numCores),
                   blockAt((n * 7) % 8192), request(type));
        ++n;
        sim.queue().run();
        state.SetIterationTime(timed);
    }
    state.SetItemsProcessed(static_cast<int64_t>(handled));
}

void
dataStoreLoad(benchmark::State &state)
{
    DataStore ds;
    for (uint64_t w = 0; w < (1u << 17); ++w)
        ds.store(0x100000 + w * 8, w);
    Lcg rng;
    uint64_t sum = 0;
    for (auto _ : state)
        sum += ds.load(0x100000 + (rng.next() % (1u << 17)) * 8);
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}

void
dataStoreStore(benchmark::State &state)
{
    DataStore ds;
    Lcg rng;
    for (auto _ : state) {
        const uint64_t r = rng.next();
        ds.store(0x100000 + (r % (1u << 17)) * 8, r);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}

// ---- sig: signatures ------------------------------------------------

void
sigInsert(benchmark::State &state, SignatureConfig cfg)
{
    auto sig = makeSignature(cfg);
    Lcg rng;
    uint64_t n = 0;
    for (auto _ : state) {
        sig->insert(blockAt(rng.next() % 65536));
        benchmark::ClobberMemory();
        if (++n % 64 == 0)
            sig->clear();  // one transaction's footprint, amortized
    }
    state.SetItemsProcessed(state.iterations());
}

void
sigProbe(benchmark::State &state, SignatureConfig cfg)
{
    auto sig = makeSignature(cfg);
    Lcg rng;
    for (int i = 0; i < 16; ++i)
        sig->insert(blockAt(rng.next() % 65536));
    uint64_t hits = 0;
    for (auto _ : state)
        hits += sig->mayContain(blockAt(rng.next() % 65536)) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}

// ---- tm: conflict check, undo log, log filter -----------------------

/**
 * TmEngine::checkRemote on a 4-core machine with @p smt contexts per
 * core, every context inside a transaction that has written 8 blocks.
 * One probe in 8 targets a written block.
 */
void
checkRemote(benchmark::State &state, uint32_t smt)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.threadsPerCore = smt;
    cfg.meshCols = 2;
    cfg.meshRows = 2;
    cfg.l2Banks = 4;
    cfg.signature = sigBS(2048);
    TmSystem sys(cfg);
    const Asid asid = sys.os().createProcess();
    std::vector<ThreadId> threads;
    std::vector<std::vector<PhysAddr>> written(cfg.numCores);
    for (uint32_t i = 0; i < cfg.numContexts(); ++i)
        threads.push_back(sys.os().spawnThread(asid));
    for (uint32_t i = 0; i < threads.size(); ++i) {
        const ThreadId t = threads[i];
        sys.engine().txBegin(t);
        for (uint64_t k = 0; k < 8; ++k) {
            const VirtAddr va = 0x400000 + (i * 64 + k * 8) * blockBytes;
            bool done = false;
            sys.engine().store(t, va, k, [&done](OpStatus) {
                done = true;
            });
            sys.sim().runUntil([&done]() { return done; });
            const CtxId ctx = sys.engine().thread(t).ctx;
            written[ctx / smt].push_back(sys.os().translate(asid, va));
        }
    }
    Lcg rng;
    uint64_t n = 0, conflicts = 0;
    for (auto _ : state) {
        const CoreId core = static_cast<CoreId>(n % cfg.numCores);
        const std::vector<PhysAddr> &mine = written[core];
        const PhysAddr block = (n % 8 == 0)
            ? mine[rng.next() % mine.size()]
            : blockAt(100000 + rng.next() % 65536);
        const CtxId req = ((core + 1) % cfg.numCores) * smt;
        const ConflictVerdict v = sys.engine().checkRemote(
            core, block, n % 2 ? AccessType::Write : AccessType::Read,
            asid, req, ~0ull);
        conflicts += v.conflict ? 1 : 0;
        ++n;
    }
    benchmark::DoNotOptimize(conflicts);
    state.SetItemsProcessed(state.iterations());
}

void
txLogAppend(benchmark::State &state)
{
    TxLog log;
    log.pushFrame({}, false);
    uint64_t n = 0;
    for (auto _ : state) {
        log.append({0x1000 + n * 8, 0x1000 + n * 8, n, 0});
        benchmark::ClobberMemory();
        if (++n % 4096 == 0) {
            log.reset();  // keep the arena at one transaction's size
            log.pushFrame({}, false);
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/** Abort-time undo: walk a 32-record frame LIFO into the DataStore,
 *  as the engine's abort handler does, then pop the frame. */
void
txLogUnwind(benchmark::State &state)
{
    TxLog log;
    DataStore ds;
    constexpr uint64_t records = 32;
    for (auto _ : state) {
        log.pushFrame({}, false);
        for (uint64_t i = 0; i < records; ++i)
            log.append({0x1000 + i * 8, 0x1000 + i * 8, i, 0});
        const auto t0 = std::chrono::steady_clock::now();
        const auto recs = log.topRecords();
        for (auto it = recs.rbegin(); it != recs.rend(); ++it)
            ds.store(it->paddr, it->oldValue);
        log.popFrame();
        state.SetIterationTime(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * records));
}

/** One store's filter lookup plus insert on a miss; cleared every 32
 *  stores, as at a transaction boundary. */
void
logFilter(benchmark::State &state)
{
    LogFilter f(16);
    Lcg rng;
    uint64_t n = 0, hits = 0;
    for (auto _ : state) {
        const VirtAddr va = 0x400000 + (rng.next() % 48) * blockBytes;
        if (f.contains(va))
            ++hits;
        else
            f.insert(va);
        if (++n % 32 == 0)
            f.clear();
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}

// ---- obs: cycle accounting, JSON writer ------------------------------

void
acctTransition(benchmark::State &state)
{
    CycleAccounting acct;
    constexpr uint32_t contexts = 32;
    acct.init(contexts, 0);
    for (CtxId c = 0; c < contexts; ++c)
        acct.onSchedIn(c, c, 0, false);
    Cycle now = 0;
    uint64_t n = 0;
    for (auto _ : state) {
        const CtxId c = static_cast<CtxId>(n++ % contexts);
        now += 5;
        acct.txBegin(c, now, c);
        now += 5;
        acct.txCommitTop(c, now, c, false);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 2));
}

/** A result record shaped like one campaign job's. */
std::string
resultDocument()
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", std::string("Raytrace"));
    w.field("variant", std::string("BS_2048"));
    for (int i = 0; i < 24; ++i)
        w.field("counter" + std::to_string(i), uint64_t{1234567} * i);
    for (int i = 0; i < 8; ++i)
        w.field("ratio" + std::to_string(i), 0.125 * i + 1.0 / 3.0);
    w.key("abortsByCause");
    w.beginObject();
    for (const char *c : {"conflict", "cycle", "capacity", "explicit"})
        w.field(c, uint64_t{17});
    w.endObject();
    w.endObject();
    return os.str();
}

void
jsonWrite(benchmark::State &state)
{
    for (auto _ : state) {
        std::string doc = resultDocument();
        benchmark::DoNotOptimize(doc);
    }
    state.SetItemsProcessed(state.iterations());
}

// ---- sweep: JSON parser, result store --------------------------------

void
jsonParse(benchmark::State &state)
{
    const std::string doc = resultDocument();
    for (auto _ : state) {
        std::string err;
        sweep::JsonValue v = sweep::JsonValue::parse(doc, &err);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations());
}

void
storeWrite(benchmark::State &state)
{
    const std::string dir = scratchDir + "/layers-store";
    std::filesystem::remove_all(dir);
    {
        sweep::ResultStore store(dir);
        ExperimentConfig cfg;
        ExperimentResult res;
        res.bench = "Microbench";
        res.variant = "BS_2048";
        res.cycles = 123456;
        res.commits = 4096;
        uint64_t n = 0;
        for (auto _ : state) {
            cfg.sys.seed = 1 + n++ % 64;  // 64 entries, rewritten
            store.store(cfg, res);
        }
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations());
}

void
registerAll()
{
    using benchmark::RegisterBenchmark;
    RegisterBenchmark("sim.queue_ns", queueSchedulePop);
    RegisterBenchmark("net.send_ns", meshSend);
    RegisterBenchmark("mem.l1_hit_ns", l1Hit);
    RegisterBenchmark("mem.l1_miss_ns", l1Miss);
    RegisterBenchmark("mem.dir_gets_ns", dirRequest, AccessType::Read)
        ->UseManualTime();
    RegisterBenchmark("mem.dir_getm_ns", dirRequest, AccessType::Write)
        ->UseManualTime();
    RegisterBenchmark("mem.datastore_load_ns", dataStoreLoad);
    RegisterBenchmark("mem.datastore_store_ns", dataStoreStore);
    const std::pair<const char *, SignatureConfig> sigs[] = {
        {"perfect", sigPerfect()}, {"bs2048", sigBS(2048)},
        {"cbs2048", sigCBS(2048)}, {"dbs2048", sigDBS(2048)}};
    for (const auto &[name, cfg] : sigs) {
        RegisterBenchmark((std::string("sig.insert_ns.") + name).c_str(),
                          sigInsert, cfg);
        RegisterBenchmark((std::string("sig.probe_ns.") + name).c_str(),
                          sigProbe, cfg);
    }
    RegisterBenchmark("tm.check_remote_ns.ctx2", checkRemote, 2u);
    RegisterBenchmark("tm.check_remote_ns.ctx8", checkRemote, 8u);
    RegisterBenchmark("tm.txlog_append_ns", txLogAppend);
    RegisterBenchmark("tm.txlog_unwind_ns", txLogUnwind)
        ->UseManualTime();
    RegisterBenchmark("tm.logfilter_ns", logFilter);
    RegisterBenchmark("obs.acct_transition_ns", acctTransition);
    RegisterBenchmark("obs.json_write_ns", jsonWrite);
    RegisterBenchmark("sweep.json_parse_ns", jsonParse);
    RegisterBenchmark("sweep.store_write_ns", storeWrite);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scratch") == 0 && i + 1 < argc)
            scratchDir = argv[++i];
        else
            args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 2;
    registerAll();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
