/**
 * @file
 * The simulated multiprocessor: processors, caches, bus, shared
 * memory, and the fuzzy-barrier network, advanced on a common clock.
 */

#ifndef FB_SIM_MACHINE_HH
#define FB_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "barrier/network.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "isa/program.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/memory.hh"
#include "sim/processor.hh"
#include "sim/trace.hh"
#include "snapshot/format.hh"
#include "support/hibitset.hh"

namespace fb::sim
{

/** Everything measured about one simulated processor. */
struct ProcessorStats
{
    std::uint64_t instructions = 0;
    std::uint64_t barrierWaitCycles = 0;
    std::uint64_t contextSwitchCycles = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t interruptsTaken = 0;
    std::uint64_t barrierEpisodes = 0;
    std::uint64_t stalledEpisodes = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/**
 * One application of the epoch/mask-shrink recovery protocol: the
 * watchdog declared @ref deadProc dead at @ref cycle, and every
 * survivor still synchronizing with it dropped its mask bit and
 * advanced to the next epoch.
 */
struct RecoveryEvent
{
    std::uint64_t cycle = 0;
    int deadProc = -1;
    std::vector<int> survivors;
};

/**
 * How the engine spent one run() call: work counts, not results. They
 * differ between the engines, shard layouts and a resumed run, so no
 * identity comparison reads them (see RunResult::engine).
 */
struct EngineStats
{
    std::uint64_t iterations = 0;       ///< run-loop iterations
    std::uint64_t coordinatorTicks = 0; ///< Processor::tick() calls
    std::uint64_t windows = 0;          ///< windows dispatched
    /** Window candidates over those windows: one runPrivate() each. */
    std::uint64_t windowCandidates = 0;
    std::uint64_t skippedCycles = 0;    ///< cycles skipWait() jumped
    /** Cycles the window candidates advanced through private ticks. */
    std::uint64_t privateCycles = 0;
    std::uint64_t parkedCores = 0;      ///< cores entered into the wheel
};

/** Result of a whole-machine run. */
struct RunResult
{
    std::uint64_t cycles = 0;          ///< total cycles simulated
    bool deadlocked = false;           ///< run ended in barrier deadlock
    bool timedOut = false;             ///< hit the maxCycles guard
    std::string deadlockInfo;          ///< per-processor state dump
    std::vector<ProcessorStats> perProcessor;
    std::uint64_t syncEvents = 0;      ///< completed barrier episodes
    /** Sync records rotated out by MachineConfig::syncRecordWindow. */
    std::uint64_t syncRecordsDropped = 0;
    std::uint64_t busRequests = 0;
    std::uint64_t busQueueDelay = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t hotSpotAccesses = 0;

    // Write-through coherence filter (see Machine::Port::write):
    // invalidations actually delivered to caches holding the line,
    // and the broadcast invalidations the sharer mask avoided.
    std::uint64_t invalidationsSent = 0;
    std::uint64_t invalidationsAvoided = 0;

    // Fault injection / recovery (all zero on fault-free runs).
    std::vector<RecoveryEvent> recoveries;
    std::vector<int> deadDeclared;     ///< processors fenced off
    fault::InjectorStats faultStats;
    fault::WatchdogStats watchdogStats;
    std::uint64_t correctedFaults = 0; ///< ECC scrub corrections
    /** First fault-safety (membership) violation, or empty. */
    std::string membershipViolation;

    // Staged-checkpoint accounting (all zero unless a staged sink was
    // installed). Deliberately excluded from the resume-equivalence
    // comparison: checkpointing must never change what a run computes,
    // only how its state is persisted.
    std::uint64_t checkpointsFull = 0;  ///< full captures taken
    std::uint64_t checkpointsDelta = 0; ///< delta captures taken
    std::uint64_t checkpointDegradations = 0; ///< sink degradation events
    /** Last degradation note reported by the staged sink, or empty. */
    std::string checkpointDegradation;

    /** Engine work counts, excluded from every identity comparison
     * for the same reason as the checkpoint counters above. */
    EngineStats engine;

    /** True if @p p was fenced off by the recovery protocol. */
    bool isDead(int p) const
    {
        for (int d : deadDeclared)
            if (d == p)
                return true;
        return false;
    }

    /** Sum of barrierWaitCycles over all processors. */
    std::uint64_t totalBarrierWait() const;

    /** Max barrierWaitCycles of any processor. */
    std::uint64_t maxBarrierWait() const;
};

/**
 * A record of one completed synchronization: used by the safety
 * oracle to verify the paper's correctness condition (section 2):
 * crossing may only happen after every member has arrived.
 */
struct SyncRecord
{
    std::uint64_t cycle;                 ///< cycle sync was delivered
    std::vector<int> members;            ///< processors that synced
    std::vector<std::uint64_t> arrivals; ///< per-member arrival cycles
    std::vector<std::uint64_t> crossings;///< per-member crossing cycles
                                         ///< (UINT64_MAX = never crossed)
};

/**
 * Shard rendezvous hook for exec::ShardedMachine (INTERNALS section
 * 17). When a driver is installed, run() hands each window to it
 * instead of advancing the window candidates inline:
 * advanceWindow(stop) must make every shard call
 * advanceShardRange(first, last, stop) for its processor range
 * (disjoint ranges covering every processor, any threading) and
 * return only when all shards are done. The machine itself never
 * spawns threads.
 */
class ShardWindowDriver
{
  public:
    virtual ~ShardWindowDriver() = default;

    /** Advance all shards through private ticks up to @p stop. */
    virtual void advanceWindow(std::uint64_t stop) = 0;
};

/**
 * The whole machine. Construct, load one Program per processor,
 * optionally poke memory / registers, then run().
 */
class Machine : public ExecutionObserver
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Structural shape key of a config: the inputs that size the
     * machine's long-lived arrays (processor count, memory size,
     * cache model and geometry). Two configs with equal keys can
     * share one Machine via reset(); everything else (seed, timing,
     * stall model, fault plan, ...) is a reset-time parameter.
     */
    static std::uint64_t structuralKey(const MachineConfig &config);

    /**
     * Reinitialize for @p config — observably equivalent to
     * destroying this machine and constructing Machine(config), but
     * reusing every large allocation (memory slabs, cache arrays,
     * sharer masks, scratch vectors). Requires structuralKey(config)
     * == structuralKey of the current config. Cost is proportional
     * to the state the previous run actually touched, not to the
     * machine size. Programs revert to empty; the checkpoint sink
     * and any observer/trace state are cleared per @p config.
     */
    void reset(const MachineConfig &config);

    /**
     * Load @p program into processor @p p. Must precede run(). The
     * processor executes the program's decoded form, obtained from
     * decodeProgram() (whose memo shares blocks between machines and
     * checks content, not only the hash). Processors that load equal
     * programs share one copy of the source and one decoded block.
     */
    void loadProgram(int p, const isa::Program &program);

    /** Load the same program into every processor (one shared decode). */
    void loadAllPrograms(const isa::Program &program);

    /** Access shared memory for setup/inspection. */
    SharedMemory &memory() { return *_memory; }

    /** Access processor @p p (register setup, inspection). */
    Processor &processor(int p);

    /** Access the barrier network (mask/tag setup from the host). */
    barrier::BarrierNetwork &network() { return *_network; }

    /** Number of processors. */
    int numProcessors() const { return _config.numProcessors; }

    /** The configuration this machine currently runs under. */
    const MachineConfig &config() const { return _config; }

    /**
     * Run until every processor halts, a deadlock is detected, or the
     * cycle guard trips. With MachineConfig::fastForward (the default)
     * this is the windowed engine: processors run ahead of the global
     * clock through provably private ticks, and cycles in which no
     * core can act are skipped. A @p driver (installed by
     * exec::ShardedMachine) spreads each window over host threads,
     * bounded by MachineConfig::shardQuantum. Without fastForward it
     * is the per-cycle reference loop. Results are byte-identical
     * across all of these.
     */
    RunResult run(ShardWindowDriver *driver = nullptr);

    /**
     * Shard worker entry: advance the window candidates among
     * processors [@p first, @p last) through consecutive private ticks
     * up to (excluding) cycle @p stop. Only called from
     * ShardWindowDriver::advanceWindow(), on disjoint ranges; touches
     * nothing outside the range's candidates and their skew cursors.
     */
    void advanceShardRange(int first, int last, std::uint64_t stop);

    /** Barrier-state trace (non-null only when traceBarrierStates). */
    const BarrierTrace *trace() const { return _trace.get(); }

    /** Sync records collected during run() (if enabled in config). */
    const std::vector<SyncRecord> &syncRecords() const
    {
        return _syncRecords;
    }

    /**
     * Verify the fuzzy-barrier safety condition over the collected
     * sync records: every member's crossing cycle is strictly greater
     * than every member's arrival cycle. Returns a description of the
     * first violation or an empty string when the property holds.
     */
    std::string checkSafetyProperty() const;

    // ExecutionObserver interface
    void onArrive(int p, std::uint64_t cycle) override;
    void onCross(int p, std::uint64_t cycle) override;

    /**
     * Receives each periodic checkpoint: the cycle it was captured at
     * and the assembled snapshot bytes. Returning false uninstalls the
     * sink (no further checkpoints are taken this run).
     */
    using CheckpointSink =
        std::function<bool(std::uint64_t cycle,
                           const std::vector<std::uint8_t> &bytes)>;

    /** Install the checkpoint sink (see MachineConfig::
     * checkpointEveryCycles). Must precede run(). Uninstalls any
     * staged sink. */
    void setCheckpointSink(CheckpointSink sink)
    {
        _checkpointSink = std::move(sink);
        _stagedSink = nullptr;
    }

    /**
     * Staged-checkpoint handshake: the sink's verdict on a capture it
     * was handed, returned synchronously while the capture may still
     * be queued for background persistence.
     */
    struct CheckpointAck
    {
        /** false: uninstall the sink, take no further checkpoints. */
        bool keep = true;
        /**
         * true: the next capture must be a full re-base. An
         * asynchronous writer sets this after it failed to persist an
         * earlier capture — the on-disk chain head is then stale, and
         * a delta against the in-memory predecessor would name a
         * snapshot that never reached the store.
         */
        bool forceFull = false;
        /** false: stop producing deltas; every later capture is full
         *  (degradation ladder, INTERNALS section 18). */
        bool deltasOk = true;
        /** Non-empty: a degradation to record in RunResult. */
        std::string degradation;
    };

    /**
     * Receives each periodic capture as unassembled sections plus the
     * chain-linked header (generation/baseFull/prev filled in). The
     * sink owns both values — it may hand them to a background writer
     * and return immediately; the machine never touches them again.
     */
    using StagedCheckpointSink = std::function<CheckpointAck(
        snapshot::SnapshotHeader header,
        std::vector<snapshot::Section> sections)>;

    /**
     * Install the staged (delta-capable) checkpoint sink and reset the
     * chain bookkeeping: the first capture is full, then deltas until
     * MachineConfig::checkpointRebaseEvery forces a re-base.
     * Uninstalls any legacy byte sink. Must precede run().
     */
    void setStagedCheckpointSink(StagedCheckpointSink sink);

    /**
     * FNV-1a fingerprint over every result-relevant configuration
     * input: all MachineConfig fields except checkpointEveryCycles
     * (which never changes results), the fault plan, the watchdog
     * parameters, and every loaded program's instructions and barrier
     * ids. A snapshot only restores into a machine with an identical
     * fingerprint, so state can never silently meet the wrong config
     * or the wrong code.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Capture the complete mutable machine state as a validated
     * snapshot byte stream (see src/snapshot/). @p generation is
     * embedded in the header for the store's stale-snapshot check.
     * Not supported while barrier-state tracing is enabled.
     */
    std::vector<std::uint8_t>
    saveState(std::uint64_t generation = 0) const;

    /**
     * Restore state captured by saveState() on an identically
     * configured machine with identical programs loaded (enforced via
     * the config fingerprint). On success the machine continues from
     * the captured cycle: run() produces exactly the cycles, stats and
     * verdict the uninterrupted run would have produced. On failure
     * returns false with a diagnostic in @p error; the machine must
     * then be discarded (state may be partially overwritten).
     */
    bool restoreState(const std::vector<std::uint8_t> &bytes,
                      std::string &error);

    /**
     * Apply one delta snapshot on top of the current state, which must
     * be exactly the state the delta was captured against (its prev
     * link). Same fingerprint rules as restoreState(); on failure the
     * machine must be discarded.
     */
    bool applyDeltaState(const std::vector<std::uint8_t> &bytes,
                         std::string &error);

    /**
     * Restore a full chain as returned by SnapshotStore::
     * loadLatestChain(): chain[0] must be a full snapshot, every later
     * element a delta against its predecessor.
     */
    bool restoreChainState(
        const std::vector<std::vector<std::uint8_t>> &chain,
        std::string &error);

  private:
    class Port;

    std::string describeState() const;

    /** What one iteration of run() observed (see the phases below). */
    struct CycleOutcome
    {
        bool allHalted = true;  ///< no core can ever tick again
        bool progress = false;  ///< some core, delivery or recovery moved
        int delivered = 0;      ///< processors synchronized this cycle
        bool recovered = false; ///< the watchdog fenced a processor
    };

    // The phases of one run() iteration, in order. Each works on
    // _now; only advanceFast() moves the clock beyond the next cycle.

    /** Move the cores whose run-ahead ends at _now from the wheel
     * back into _aligned. */
    void admitDueCores();

    /** Apply the fault injector's actions due at _now. */
    void injectFaults();

    /** Tick every aligned processor once, in ascending order; the
     * ticked ones become this iteration's window candidates. */
    void stepCores(CycleOutcome &c);

    /** Evaluate the barrier network and record completed episodes. */
    void deliverEpisodes(CycleOutcome &c);

    /** One SyncRecord per tag group of the cycle's delivery. */
    void recordEpisodes();

    /** Append _now's barrier states to the trace. */
    void traceCycle(bool delivered);

    /** Run the watchdog; fence and recover any dead processor. */
    void watchdogCycle(CycleOutcome &c);

    /** True if nothing can ever make progress again. */
    bool deadlocked(const CycleOutcome &c) const;

    /**
     * The windowed engine's advance: run private ticks ahead of the
     * clock in a window (inline, or spread over @p driver's threads),
     * then skip the clock to just before the next cycle the loop body
     * must observe.
     */
    void advanceFast(ShardWindowDriver *driver, std::uint64_t quantum,
                     const CycleOutcome &c);

    /** End of the current window: no core may run into a cycle where
     * a global action (fault, watchdog, checkpoint, end) could touch
     * it. */
    std::uint64_t windowBound(std::uint64_t quantum) const;

    /** True if some window candidate can run a private tick below
     * @p window (publishes the private-read horizons first). */
    bool windowUseful(std::uint64_t window);

    /** Move the candidates that ran ahead from _aligned into the
     * wheel. */
    void parkAheadCores();

    /** Smallest cursor in the wheel (UINT64_MAX when it is empty). */
    std::uint64_t firstParkedCursor() const;

    /** The cycle the clock may skip to: the earliest cycle after _now
     * at which some core, delivery, fault or watchdog acts. */
    std::uint64_t skipTarget(const CycleOutcome &c) const;

    /** Bulk-account the wait cycles below @p target, unless the skip
     * would hide a deadlock the per-cycle loop reports. */
    void skipWait(std::uint64_t target);

    /** Hand a checkpoint to the installed sink if one is due at _now. */
    void maybeCheckpoint();

    /** Fill @p result from the machine's counters at the end of run(). */
    void collectResult(RunResult &result) const;

    /** Fence the dead processors and run mask-shrink on survivors. */
    void applyRecovery(const std::vector<int> &dead, std::uint64_t now);

    MachineConfig _config;
    std::unique_ptr<SharedMemory> _memory;
    std::unique_ptr<SharedBus> _bus;
    std::unique_ptr<barrier::BarrierNetwork> _network;
    std::vector<std::unique_ptr<DataCache>> _caches;
    std::vector<std::unique_ptr<Port>> _ports;
    /** Loaded source per processor; equal programs share one copy. */
    std::vector<std::shared_ptr<const isa::Program>> _programs;
    /** Decoded forms of _programs, the code the processors execute. */
    std::vector<std::shared_ptr<const DecodedProgram>> _decodedPrograms;
    /** Content hash -> a slot loaded with that program since the last
     * reset; a later load shares the slot's source and block only if
     * its code compares equal (Program::sameCode). */
    std::unordered_map<std::uint64_t, std::size_t> _loadedByHash;
    std::vector<std::unique_ptr<Processor>> _processors;
    std::uint64_t _now = 0;
    std::unique_ptr<BarrierTrace> _trace;

    // Fault injection and recovery (null when no faults configured).
    std::unique_ptr<fault::FaultInjector> _injector;
    std::unique_ptr<fault::BarrierWatchdog> _watchdog;
    /** Processors fenced off by the recovery protocol. */
    std::vector<bool> _fenced;
    std::vector<RecoveryEvent> _recoveries;
    std::vector<int> _deadDeclared;
    /** First membership violation observed (survives save/restore). */
    std::string _membershipViolation;

    /** Build the full-snapshot section list (saveState's body). */
    std::vector<snapshot::Section> buildFullSections() const;

    /** Build the delta section list for the open epoch. */
    std::vector<snapshot::Section> buildDeltaSections() const;

    /** Open (or roll over) the delta epoch on every component. */
    void beginDeltaEpoch();

    /** Close the delta epoch on every component. */
    void endDeltaEpoch();

    /** Capture and hand one checkpoint to the staged sink. */
    void takeStagedCheckpoint(std::uint64_t generation);

    /** Epoch hook for the per-line sharer masks (Port mutations). */
    void markSharerEpoch(std::size_t line)
    {
        if (_epochCoreTracking && !_epochSharerDirty[line]) {
            _epochSharerDirty[line] = true;
            _epochSharerLines.push_back(line);
        }
    }

    /** Periodic checkpoint consumer (null = checkpointing off). */
    CheckpointSink _checkpointSink;

    /** Staged (delta-capable) checkpoint consumer. */
    StagedCheckpointSink _stagedSink;

    // Delta-chain bookkeeping for the staged sink (reset at install).
    bool _deltaEpochOpen = false;  ///< a capture opened an epoch
    bool _deltasDisabled = false;  ///< ladder: full snapshots only
    bool _forceFullNext = false;   ///< sink requested a re-base
    std::uint64_t _checkpointSeq = 0;     ///< captures since install
    std::uint64_t _chainBaseGen = 0;      ///< open chain's anchor
    std::uint64_t _lastCheckpointGen = 0; ///< prev link for deltas
    std::uint64_t _restoredChainGen = 0;  ///< last restored generation
    std::uint64_t _checkpointsFull = 0;
    std::uint64_t _checkpointsDelta = 0;
    std::uint64_t _checkpointDegradations = 0;
    std::string _checkpointDegradation;

    // Core delta-epoch bookkeeping (not serialized): sharer lines
    // mutated since the last capture, and the index of the first sync
    // record that was still open (mutable) when the epoch began —
    // records before it are immutable, so a delta only re-encodes
    // [_epochSyncPatchFrom, end).
    bool _epochCoreTracking = false;
    std::vector<bool> _epochSharerDirty;
    std::vector<std::size_t> _epochSharerLines;
    std::size_t _epochSyncPatchFrom = 0;

    // Oracle bookkeeping. With MachineConfig::syncRecordWindow the
    // record trail is a rotating window: _syncRecords holds the
    // retained suffix and _syncRecordsDropped counts the rotated-out
    // prefix, so _openSyncRecord / _epochSyncPatchFrom keep using
    // absolute indices (vector position = absolute - dropped).
    std::vector<std::uint64_t> _lastArrival;
    /** Processor p's still-uncrossed episode: its record and p's slot
     * among the record's members, so onCross() patches the crossing
     * without a search. Snapshots carry only the record; a restore
     * re-derives the slot (bindOpenSyncSlots). */
    struct OpenSync
    {
        static constexpr std::size_t none = ~std::size_t{0};
        std::size_t record = none;
        std::size_t slot = 0;
    };
    std::vector<OpenSync> _openSyncRecord;
    std::vector<SyncRecord> _syncRecords;
    std::uint64_t _syncRecordsDropped = 0;

    /** Rotate records beyond the window out of _syncRecords, never
     * touching open records or the current delta epoch's patch tail. */
    void pruneSyncRecords();

    /** Find each open record's member slot after a restore; false if
     * an open record does not list its processor. */
    bool bindOpenSyncSlots();

    // Run-loop state, rebuilt at every run() entry and never
    // serialized (windows never span a checkpoint boundary, so every
    // processor is aligned whenever state is captured). Reserved to
    // the processor count at construction: run() allocates none of it.
    /**
     * Skew cursors: _procNext[p] is the next global cycle whose tick
     * processor p still owes. A processor with _procNext[p] > _now
     * ran ahead through private ticks in a window; the coordinator
     * counts it as alive-and-progressing and skips its tick. The
     * per-cycle loop never runs ahead, so there every cursor is
     * _now + 1 after the tick.
     */
    std::vector<std::uint64_t> _procNext;
    /** Processors that still tick and have not run ahead: their
     * cursor is at or behind the clock. Walked in ascending order —
     * tick order is architectural (FAA atomicity, bus request
     * ordering). */
    HiBitset _aligned;
    /**
     * Processors that ran ahead, on a calendar wheel of wheelSlots
     * cycle slots: slot c % wheelSlots heads an intrusive list
     * (_wheelHead, linked through _wheelNext) of the cores whose
     * cursor is c, and _wheelUsed marks the nonempty slots. Each
     * parked core owes the tick at its cursor, which the coordinator
     * runs when the clock lands there (admitDueCores); until then it
     * is never a window candidate. A window stops at most wheelSlots
     * cycles past the clock (its span is clamped to wheelSlots - 1)
     * and the clock never passes a parked cursor, so once the due
     * cores are admitted every parked cursor lies in
     * [_now + 1, _now + wheelSlots]: a slot holds one cycle's cores.
     */
    static constexpr std::size_t wheelSlots = HiBitset::maxCapacity;
    /** Valid only where _wheelUsed is set; left uninitialized so the
     * pages of slots a run never uses are never touched. */
    std::unique_ptr<int[]> _wheelHead;
    std::vector<int> _wheelNext;
    HiBitset _wheelUsed;
    /** This iteration's window candidates: the processors stepCores
     * ticked, ascending. Written before a window's release barrier,
     * read by the shard threads. */
    std::vector<int> _candidates;
    EngineStats _engine;
    /** (tag, processor) pairs of one delivery, for episode grouping. */
    std::vector<std::pair<std::uint32_t, int>> _groupScratch;
    /** One episode's member set, for the membership oracle. */
    BitVector _memberScratch;
    std::vector<barrier::BarrierState> _traceStates;
    std::vector<bool> _traceHalted;
    /** Per-processor halted-or-fenced flags handed to the watchdog.
     * Maintained incrementally (halt edges, kills, recovery fences)
     * so the per-cycle watchdog block is O(active), not O(n). */
    std::vector<bool> _wdHalted;

    /**
     * True while a shard window is being dispatched. Port::read routes
     * through the deferred-statistics path during a window: the value
     * comes from a race-free peek, the timing from the (asserted) own-
     * cache hit, and the shared-memory statistics are queued per
     * processor and replayed by flushDeferredReads() when the window
     * closes. Written by the coordinator before the window's release
     * barrier, cleared after the join, so shard threads read it with
     * happens-before.
     */
    bool _windowActive = false;
    /** Addresses read on the private fast path this window, per
     * processor (each slot touched only by its owning shard). */
    std::vector<std::vector<std::size_t>> _deferredReads;

    /**
     * Replay the statistics of every private-path load performed in
     * the window just closed (only candidates ran), in processor
     * order: memory access counts, sharer-mask bits and the sharer
     * delta-epoch marks. All of these are order-insensitive (sums,
     * idempotent bit-sets, and sorted-at-encode page/line lists), so
     * the replay is byte-identical to the sequential interleaving.
     */
    void flushDeferredReads();

    /**
     * Earliest future cycle at which processor @p q could execute a
     * store (or any globally visible action): its skew cursor when
     * running, or its barrier wake-up bound when blocked at a barrier.
     * Private loads of other processors are admitted strictly below
     * the minimum of these bounds.
     */
    std::uint64_t writeBoundFor(int q) const;

    /** Publish each candidate's private-read horizon for a window
     * dispatch: the min over every other live processor's
     * writeBoundFor(). */
    void computePrivateReadHorizons();

    // Per-line sharer masks for the write-through coherence filter
    // (bit p = processor p's cache may hold the line; conservative
    // superset, reset to the writer on every store). Empty when the
    // cache model is disabled.
    std::vector<std::uint64_t> _lineSharers;
    std::uint64_t _invalidationsSent = 0;
    std::uint64_t _invalidationsAvoided = 0;

    /**
     * reset() normally bounds the sharer-mask zeroing by the memory
     * pages the run touched (every sharer-setting access also lands
     * in the access stats). A restoreState() that fails partway can
     * leave sharers whose pages the current stats no longer cover;
     * this flag forces the next reset() to take the full O(lines)
     * clear instead.
     */
    bool _sharersUnbounded = false;
};

} // namespace fb::sim

#endif // FB_SIM_MACHINE_HH
