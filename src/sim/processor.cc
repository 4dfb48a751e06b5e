#include "sim/processor.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace fb::sim
{

using isa::Opcode;

namespace
{

// Two's-complement arithmetic without signed overflow: compute in
// uint64_t, convert back (modular since C++20).
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** Quotient truncated toward zero; INT64_MIN / -1 wraps to
 * INT64_MIN instead of trapping. @p b must be non-zero. */
std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    return b == -1 ? wrapSub(0, a) : a / b;
}

/** Shift left by the low six bits of @p b. */
std::int64_t
wrapShl(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                     << (b & 63));
}

} // namespace

Processor::Processor(int id, const DecodedProgram &program,
                     barrier::BarrierUnit &unit, MemoryPort &mem,
                     int pipeline_depth, StallModel stall,
                     RandomSource jitter, double jitter_mean,
                     std::uint64_t interrupt_period,
                     std::int64_t isr_entry, int issue_width)
    : _id(id), _code(&program), _unit(unit), _mem(mem),
      _pipelineDepth(pipeline_depth), _stall(stall), _jitter(jitter),
      _jitterMean(jitter_mean),
      _jitterCut(RandomSource::jitterCut(jitter_mean)),
      _interruptPeriod(interrupt_period),
      _isrEntry(isr_entry), _issueWidth(issue_width),
      _nextInterrupt(interrupt_period)
{
    FB_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
    FB_ASSERT(issue_width >= 1, "issue width must be >= 1");
    FB_ASSERT(interrupt_period == 0 || isr_entry >= 0,
              "interrupts enabled but no ISR entry point");
}

void
Processor::reset(int pipeline_depth, StallModel stall,
                 RandomSource jitter, double jitter_mean,
                 std::uint64_t interrupt_period, std::int64_t isr_entry,
                 int issue_width)
{
    FB_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
    FB_ASSERT(issue_width >= 1, "issue width must be >= 1");
    FB_ASSERT(interrupt_period == 0 || isr_entry >= 0,
              "interrupts enabled but no ISR entry point");
    _pipelineDepth = pipeline_depth;
    _stall = stall;
    _jitter = jitter;
    _jitterMean = jitter_mean;
    _jitterCut = RandomSource::jitterCut(jitter_mean);
    _interruptPeriod = interrupt_period;
    _isrEntry = isr_entry;
    _issueWidth = issue_width;
    _observer = nullptr;
    _regs.fill(0);
    _pc = 0;
    _halted = false;
    _state = CoreState::Running;
    _busyCycles = 0;
    _markerRegion = false;
    _callStack.clear();
    _issueEffRegion = false;
    _lastIssueCost = 0;
    _inIsr = false;
    _savedPc = 0;
    _nextInterrupt = interrupt_period;
    _forceInterrupt = false;
    _arrivePending = false;
    _arriveCycle = 0;
    _lastNonRegionComplete = 0;
    _privReadHorizon = 0;
    _instructions = 0;
    _barrierWaitCycles = 0;
    _contextSwitchCycles = 0;
    _contextSwitches = 0;
    _interruptsTaken = 0;
}

bool
Processor::maybeInterrupt(std::uint64_t now)
{
    if (_inIsr)
        return false;
    bool periodic = _interruptPeriod != 0 && now >= _nextInterrupt;
    if (!periodic && !_forceInterrupt)
        return false;
    if (_isrEntry < 0 ||
        static_cast<std::size_t>(_isrEntry) >= _code->size()) {
        _forceInterrupt = false;  // nowhere to vector: drop it
        return false;
    }
    // Vector to the service routine. The ISR runs outside the barrier
    // region structure: no arrivals, no crossing checks, and the
    // barrier unit's state is left untouched until IRET.
    _savedPc = _pc;
    _pc = static_cast<std::size_t>(_isrEntry);
    _inIsr = true;
    if (periodic)
        _nextInterrupt += _interruptPeriod;
    _forceInterrupt = false;
    ++_interruptsTaken;
    return true;
}

std::int64_t
Processor::reg(int idx) const
{
    FB_ASSERT(idx >= 0 && idx < isa::numRegisters, "bad register");
    return idx == 0 ? 0 : _regs[static_cast<std::size_t>(idx)];
}

void
Processor::setReg(int idx, std::int64_t value)
{
    FB_ASSERT(idx > 0 && idx < isa::numRegisters, "bad register");
    _regs[static_cast<std::size_t>(idx)] = value;
}

void
Processor::maybeArrive(std::uint64_t now)
{
    if (_arrivePending && now >= _arriveCycle) {
        _arrivePending = false;
        _unit.arrive();
        if (_observer)
            _observer->onArrive(_id, now);
    }
}

TickResult
Processor::tick(std::uint64_t now)
{
    if (_halted)
        return TickResult::Halted;

    maybeArrive(now);

    switch (_state) {
      case CoreState::Running:
        if (_busyCycles > 0) {
            --_busyCycles;
            return TickResult::Progress;
        }
        maybeInterrupt(now);
        return issueBundle(now);

      case CoreState::DrainWait:
        // Waiting for the pipeline to drain so readiness fires; the
        // arrival then leads to the normal stall path. This is a
        // bounded wait on the core's own pipeline — report Progress,
        // not BarrierWait, or the machine would misdiagnose deadlock
        // while the drain clock is still running.
        if (!_arrivePending) {
            _state = CoreState::Running;
            return issue(now);
        }
        ++_barrierWaitCycles;
        return TickResult::Progress;

      case CoreState::HwStalled:
        if (_unit.mayCross()) {
            _state = CoreState::Running;
            return issue(now);
        }
        // A stalled processor can still service interrupts — useful
        // work overlapping the wait (section 9). After IRET the
        // crossing check naturally re-evaluates.
        if (maybeInterrupt(now)) {
            _state = CoreState::Running;
            return issue(now);
        }
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;

      case CoreState::SwSaving:
        ++_barrierWaitCycles;
        ++_contextSwitchCycles;
        if (_busyCycles > 0) {
            --_busyCycles;
            return TickResult::Progress;
        }
        _state = CoreState::SwSuspended;
        [[fallthrough]];

      case CoreState::SwSuspended:
        if (_unit.mayCross()) {
            _state = CoreState::SwRestoring;
            _busyCycles = _stall.restoreCycles;
            ++_barrierWaitCycles;
            ++_contextSwitchCycles;
            return TickResult::Progress;
        }
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;

      case CoreState::SwRestoring:
        if (_busyCycles > 0) {
            --_busyCycles;
            ++_barrierWaitCycles;
            ++_contextSwitchCycles;
            return TickResult::Progress;
        }
        _state = CoreState::Running;
        return issue(now);
    }
    panic("unreachable core state");
}

std::uint64_t
Processor::nextEventCycle(std::uint64_t now) const
{
    constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();
    // A halted core's next tick reports Halted, which drops it from
    // the machine's active pool and may complete the all-halted
    // termination check — an event, not a wait (skipping past it
    // would let a run that is about to finish sail on into future
    // fault events the reference loop never reaches).
    if (_halted)
        return now + 1;

    std::uint64_t next = never;
    // A pending arrival fires in maybeArrive() at the top of any
    // tick, changing the unit state (and thus the network AND) even
    // while the core is mid-countdown.
    if (_arrivePending)
        next = std::min(next, std::max(_arriveCycle, now + 1));

    switch (_state) {
      case CoreState::Running:
      case CoreState::SwSaving:
      case CoreState::SwRestoring:
        // Countdown ticks are pure accounting; the tick after the
        // countdown issues (Running/SwRestoring) or falls through to
        // SwSuspended (SwSaving).
        next = std::min(next, now + _busyCycles + 1);
        break;

      case CoreState::DrainWait:
        if (!_arrivePending)
            next = now + 1;  // transitions back to Running and issues
        break;

      case CoreState::HwStalled:
        // Synchronization already delivered (the network's pending
        // delivery no longer covers this) or a forced interrupt:
        // the very next tick acts.
        if (_unit.mayCross() || _forceInterrupt)
            return now + 1;
        // A stalled core services periodic timer interrupts.
        if (_interruptPeriod != 0 && !_inIsr)
            next = std::min(next, std::max(_nextInterrupt, now + 1));
        break;

      case CoreState::SwSuspended:
        // No interrupt servicing while switched out; only delivery
        // (an external event) wakes the task.
        if (_unit.mayCross())
            return now + 1;
        break;
    }
    return next;
}

bool
Processor::privateLoad(const DecodedInsn &di, std::uint64_t now) const
{
    // A load is private when it provably cannot observe another
    // core's store inside the window — its cycle lies strictly below
    // the write horizon the Machine published for this window — and
    // is timing-inert: an own-cache hit (no bus transaction, no
    // allocation, sharer bit already recorded).
    return now < _privReadHorizon &&
           _mem.privateReadable(static_cast<std::size_t>(
               wrapAdd(_regs[static_cast<std::size_t>(di.rs1)], di.imm)));
}

bool
Processor::isPrivateTick(std::uint64_t now) const
{
    // Halting (drops the core from the active pool), firing a pending
    // arrival, and every non-Running state (drain waits, stalls and
    // context switches all read or mutate the barrier unit) are
    // machine-visible.
    if (_halted || _arrivePending || _state != CoreState::Running)
        return false;

    // A busy countdown is pure local accounting.
    if (_busyCycles > 0)
        return true;

    // The tick would issue. Mirror maybeInterrupt(): a due interrupt
    // with a valid ISR entry vectors (a private PC/flag update) and
    // the issue happens at the ISR entry with the barrier structure
    // bypassed; an invalid entry drops the force bit and issues at
    // _pc as usual.
    std::size_t pc = _pc;
    bool in_isr = _inIsr;
    if (!_inIsr &&
        ((_interruptPeriod != 0 && now >= _nextInterrupt) ||
         _forceInterrupt)) {
        if (_isrEntry >= 0 &&
            static_cast<std::size_t>(_isrEntry) < _code->size()) {
            pc = static_cast<std::size_t>(_isrEntry);
            in_isr = true;
        }
    }

    // Running off the end halts — machine-visible.
    if (pc >= _code->size())
        return false;

    // Memory stores, FAA, barrier-unit mutations and HALT go to the
    // coordinator; so does a load that is not a private hit. Later
    // bundle slots only accept ALU/branch ops and never change the
    // effective region, so checking the leading slot suffices.
    const DecodedInsn &di = _code->code[pc];
    if (!di.privateOp && !(di.op == Opcode::LD && privateLoad(di, now)))
        return false;

    if (in_isr)
        return true;  // ISRs bypass the barrier structure entirely
    if (!_unit.participating())
        return true;  // tag 0: no barrier interaction at all

    // Region instructions only touch the unit when they arm the
    // arrival, which needs the NonBarrier state; once armed (or once
    // the pulse is up) region execution is the fuzzy barrier's free
    // overlap and is private. A non-region instruction with the unit
    // mid-episode crosses, stalls or drains — all unit interactions —
    // so only the idle unit lets it issue privately.
    const bool inherited = !_callStack.empty() && _callStack.back();
    const bool effective_region =
        di.staticRegion || _markerRegion || inherited;
    return effective_region !=
           (_unit.state() == barrier::BarrierState::NonBarrier);
}

std::uint64_t
Processor::runPrivate(std::uint64_t next, std::uint64_t stop)
{
    while (next < stop && isPrivateTick(next)) {
        // A private tick implies Running, so the decoded loop's entry
        // conditions are met. Multi-issue cores keep the generic
        // path: isPrivateTick only vouches for the leading bundle
        // slot.
        if (_issueWidth == 1) {
            const std::uint64_t advanced = runDecoded(next, stop);
            FB_ASSERT(advanced > next,
                      "decoded loop diverged from isPrivateTick on cpu "
                          << _id << " at cycle " << next);
            next = advanced;
            continue;
        }
        if (_busyCycles > 0) {
            const std::uint64_t k = std::min<std::uint64_t>(
                _busyCycles, stop - next);
            advanceWait(k);
            next += k;
            continue;
        }
        tick(next);
        ++next;
    }
    return next;
}

/*
 * Each opcode's semantics, written once. FB_OPCODE_SEMANTICS(X)
 * expands X(NAME, statements) for every opcode in Opcode order;
 * executeAt() expands it into a switch and runDecoded() into
 * computed-goto handlers, so the per-cycle engine and the windowed
 * engine execute the same code and differ only in when they issue.
 * The statements see the instruction `di`, the cycle `now`, the
 * running latency `cost` and `next_pc`. Arithmetic that may wrap is
 * done in uint64_t (wrapAdd and friends): two's-complement results,
 * no signed overflow.
 */
#define FB_R(idx) _regs[static_cast<std::size_t>(idx)]
// r0 reads as 0 because nothing ever writes _regs[0].
#define FB_WR(v)                                                       \
    do {                                                               \
        if (di.rd != 0)                                                \
            FB_R(di.rd) = (v);                                         \
    } while (0)
#define FB_ADDR static_cast<std::size_t>(wrapAdd(FB_R(di.rs1), di.imm))
#define FB_BRANCH_IF(cond)                                             \
    if (cond)                                                          \
        next_pc = static_cast<std::size_t>(di.imm);

#define FB_OPCODE_SEMANTICS(X)                                         \
    X(ADD, FB_WR(wrapAdd(FB_R(di.rs1), FB_R(di.rs2)));)                 \
    X(SUB, FB_WR(wrapSub(FB_R(di.rs1), FB_R(di.rs2)));)                 \
    X(MUL, FB_WR(wrapMul(FB_R(di.rs1), FB_R(di.rs2)));)                 \
    X(DIV, {                                                           \
        FB_ASSERT(FB_R(di.rs2) != 0, "division by zero at pc "          \
                                         << _pc << " on cpu " << _id);  \
        FB_WR(wrapDiv(FB_R(di.rs1), FB_R(di.rs2)));                     \
    })                                                                 \
    X(AND, FB_WR(FB_R(di.rs1) & FB_R(di.rs2));)                         \
    X(OR, FB_WR(FB_R(di.rs1) | FB_R(di.rs2));)                          \
    X(XOR, FB_WR(FB_R(di.rs1) ^ FB_R(di.rs2));)                         \
    X(SLT, FB_WR(FB_R(di.rs1) < FB_R(di.rs2) ? 1 : 0);)                 \
    X(SHL, FB_WR(wrapShl(FB_R(di.rs1), FB_R(di.rs2)));)                 \
    X(SHR, FB_WR(FB_R(di.rs1) >> (FB_R(di.rs2) & 63));)                 \
    X(ADDI, FB_WR(wrapAdd(FB_R(di.rs1), di.imm));)                      \
    X(MULI, FB_WR(wrapMul(FB_R(di.rs1), di.imm));)                      \
    X(SLTI, FB_WR(FB_R(di.rs1) < di.imm ? 1 : 0);)                      \
    X(LI, FB_WR(di.imm);)                                              \
    X(MOV, FB_WR(FB_R(di.rs1));)                                       \
    X(LD, {                                                            \
        /* Inside a window only a privateLoad() reaches this; the    \
         * memory port then takes the deferred-statistics path. */    \
        std::uint32_t mem_cycles = 0;                                  \
        FB_WR(_mem.read(FB_ADDR, now, mem_cycles));                    \
        cost += mem_cycles;                                            \
    })                                                                 \
    X(ST, {                                                            \
        std::uint32_t mem_cycles = 0;                                  \
        _mem.write(FB_ADDR, FB_R(di.rs2), now, mem_cycles);            \
        cost += mem_cycles;                                            \
    })                                                                 \
    X(FAA, {                                                           \
        /* Atomic within a cycle: processors are ticked in order,    \
         * so the read-modify-write cannot interleave. */             \
        const std::size_t addr = FB_ADDR;                              \
        std::uint32_t read_cycles = 0;                                 \
        const std::int64_t old = _mem.read(addr, now, read_cycles);    \
        std::uint32_t write_cycles = 0;                                \
        _mem.write(addr, wrapAdd(old, FB_R(di.rs2)), now,              \
                   write_cycles);                                      \
        FB_WR(old);                                                    \
        cost += read_cycles;                                           \
    })                                                                 \
    X(BEQ, FB_BRANCH_IF(FB_R(di.rs1) == FB_R(di.rs2)))                 \
    X(BNE, FB_BRANCH_IF(FB_R(di.rs1) != FB_R(di.rs2)))                 \
    X(BLT, FB_BRANCH_IF(FB_R(di.rs1) < FB_R(di.rs2)))                  \
    X(BGE, FB_BRANCH_IF(FB_R(di.rs1) >= FB_R(di.rs2)))                 \
    X(JMP, next_pc = static_cast<std::size_t>(di.imm);)                \
    X(CALL, {                                                          \
        FB_ASSERT(_callStack.size() < 4096,                            \
                  "call stack overflow on cpu " << _id);               \
        FB_WR(static_cast<std::int64_t>(_pc + 1));                     \
        _callStack.push_back(_issueEffRegion);                         \
        next_pc = static_cast<std::size_t>(di.imm);                    \
    })                                                                 \
    X(RET, {                                                           \
        FB_ASSERT(!_callStack.empty(),                                 \
                  "RET without matching CALL on cpu " << _id);         \
        _callStack.pop_back();                                         \
        next_pc = static_cast<std::size_t>(FB_R(di.rs1));              \
    })                                                                 \
    X(IRET, {                                                          \
        FB_ASSERT(_inIsr, "IRET outside an interrupt service routine"); \
        _inIsr = false;                                                \
        next_pc = _savedPc;                                            \
    })                                                                 \
    X(SETTAG, _unit.setTag(static_cast<std::uint32_t>(di.imm));)       \
    X(SETMASK, {                                                       \
        /* imm -1 is the wide form: every processor in the machine   \
         * (the 64-bit literal mask cannot name processors >= 63). */ \
        if (di.imm == -1)                                              \
            _unit.setMaskAll();                                        \
        else                                                           \
            _unit.setMask(static_cast<std::uint64_t>(di.imm));         \
    })                                                                 \
    X(BRENTER, {                                                       \
        FB_ASSERT(!_inIsr, "region markers are not allowed inside ISRs"); \
        _markerRegion = true;                                          \
    })                                                                 \
    X(BREXIT, {                                                        \
        FB_ASSERT(!_inIsr, "region markers are not allowed inside ISRs"); \
        _markerRegion = false;                                         \
    })                                                                 \
    X(NOP, )                                                           \
    X(HALT, _halted = true;)

namespace
{

// The computed-goto table is indexed by opcode value, so the
// semantics table must list every opcode exactly in Opcode order.
#define FB_LIST_OPCODE(name, ...) Opcode::name,
constexpr Opcode kSemanticsOrder[] = {
    FB_OPCODE_SEMANTICS(FB_LIST_OPCODE)};
#undef FB_LIST_OPCODE

constexpr bool
semanticsInOpcodeOrder()
{
    for (std::size_t i = 0; i < std::size(kSemanticsOrder); ++i) {
        if (static_cast<std::size_t>(kSemanticsOrder[i]) != i)
            return false;
    }
    return kSemanticsOrder[std::size(kSemanticsOrder) - 1] ==
           Opcode::HALT;
}
static_assert(semanticsInOpcodeOrder(),
              "FB_OPCODE_SEMANTICS must list every opcode in order");

} // namespace

void
Processor::retire(std::uint32_t cost, std::size_t next_pc,
                  bool effective_region, std::uint64_t now)
{
    if (_jitterMean > 0.0)
        cost += static_cast<std::uint32_t>(
            _jitter.nextJitter(_jitterMean, _jitterCut));
    _pc = next_pc;
    _lastIssueCost = cost;
    ++_instructions;
    _busyCycles = cost > 0 ? cost - 1 : 0;
    // Track when this instruction leaves the pipeline, for readiness:
    // the last execute cycle is now + cost - 1, and the instruction
    // drains pipelineDepth - 1 cycles later.
    if (!effective_region) {
        _lastNonRegionComplete =
            now + cost - 1 + static_cast<std::uint64_t>(_pipelineDepth) - 1;
    }
}

void
Processor::executeAt(const DecodedInsn &di, std::uint64_t now,
                     bool effective_region)
{
    std::uint32_t cost = di.cost;
    std::size_t next_pc = _pc + 1;
    switch (di.op) {
#define FB_CASE(name, ...)                                             \
      case Opcode::name: {                                             \
        __VA_ARGS__                                                    \
        break;                                                         \
      }
        FB_OPCODE_SEMANTICS(FB_CASE)
#undef FB_CASE
    }
    retire(cost, next_pc, effective_region, now);
}

/*
 * Threaded-code dispatch for the decoded private loop. With GNU
 * labels-as-values each opcode jumps straight to its handler through
 * a flat label table; elsewhere the same handlers compile as a dense
 * switch.
 */
#if defined(__GNUC__) || defined(__clang__)
#define FB_THREADED_DISPATCH 1
#else
#define FB_THREADED_DISPATCH 0
#endif

std::uint64_t
Processor::runDecoded(std::uint64_t next, std::uint64_t stop)
{
    const DecodedInsn *const code = _code->code.data();
    const std::size_t code_size = _code->code.size();

#if FB_THREADED_DISPATCH
#define FB_LABEL(name, ...) &&op_##name,
    // Indexed by Opcode value. The non-private opcodes never reach
    // the dispatch: the check before it ends the stretch.
    static const void *const labels[] = {FB_OPCODE_SEMANTICS(FB_LABEL)};
#undef FB_LABEL
#endif

    // Loop constants. During a private stretch the unit's tag and the
    // NonBarrier/armed distinction can only be changed by this core's
    // own excluded actions (SETTAG/SETMASK end the stretch) — a
    // concurrent delivery moves Ready to Synced without crossing the
    // NonBarrier boundary (see isPrivateTick) — so participation and
    // the NonBarrier test hold for the whole call.
    const bool participating = _unit.participating();
    const bool non_barrier =
        _unit.state() == barrier::BarrierState::NonBarrier;

    while (next < stop) {
        if (_busyCycles > 0) {
            // Busy countdowns are pure accounting (advanceWait's
            // Running branch), bulk-applied.
            const std::uint64_t k = std::min<std::uint64_t>(
                _busyCycles, stop - next);
            _busyCycles -= static_cast<std::uint32_t>(k);
            next += k;
            continue;
        }

        // Mirror maybeInterrupt() without committing: whether this
        // tick is private is decided first, mutations follow.
        std::size_t pc = _pc;
        bool in_isr = _inIsr;
        bool vector = false;
        bool drop_force = false;
        bool periodic = false;
        if (!_inIsr) {
            periodic = _interruptPeriod != 0 && next >= _nextInterrupt;
            if (periodic || _forceInterrupt) {
                if (_isrEntry >= 0 &&
                    static_cast<std::size_t>(_isrEntry) < code_size) {
                    pc = static_cast<std::size_t>(_isrEntry);
                    in_isr = true;
                    vector = true;
                } else {
                    drop_force = true;  // nowhere to vector: drop it
                }
            }
        }

        if (pc >= code_size)
            break;  // running off the end halts — machine-visible
        const DecodedInsn &di = code[pc];
        if (!di.privateOp &&
            !(di.op == Opcode::LD && privateLoad(di, next)))
            break;  // memory / barrier-control / HALT: coordinator's

        bool effective_region = false;
        if (!in_isr) {
            const bool inherited =
                !_callStack.empty() && _callStack.back();
            effective_region =
                di.staticRegion || _markerRegion || inherited;
            // Not private iff the issue would touch the unit: arming
            // (region while NonBarrier) or crossing/stalling
            // (non-region while armed).
            if (participating && effective_region == non_barrier)
                break;
        }

        // Committed: this tick is private. Apply the interrupt
        // decision (the deferred maybeInterrupt mutations), then
        // issue. The barrier block of issue() is a no-op on every
        // private tick, so execution reduces to the dispatch below.
        if (vector) {
            _savedPc = _pc;
            _pc = pc;
            _inIsr = true;
            if (periodic)
                _nextInterrupt += _interruptPeriod;
            _forceInterrupt = false;
            ++_interruptsTaken;
        } else if (drop_force) {
            _forceInterrupt = false;
        }
        _issueEffRegion = effective_region;

        std::uint32_t cost = di.cost;
        std::size_t next_pc = pc + 1;
        const std::uint64_t now = next;

#if FB_THREADED_DISPATCH
#define FB_HANDLER(name, ...)                                          \
    op_##name : {                                                      \
        __VA_ARGS__                                                    \
        goto op_issued;                                                \
    }
        goto *labels[static_cast<std::size_t>(di.op)];
        FB_OPCODE_SEMANTICS(FB_HANDLER)
#undef FB_HANDLER
    op_issued:
#else
#define FB_CASE(name, ...)                                             \
      case Opcode::name: {                                             \
        __VA_ARGS__                                                    \
        break;                                                         \
      }
        switch (di.op) {
            FB_OPCODE_SEMANTICS(FB_CASE)
        }
#undef FB_CASE
#endif
        retire(cost, next_pc, effective_region, now);
        ++next;
    }
    return next;
}

#undef FB_THREADED_DISPATCH
#undef FB_OPCODE_SEMANTICS
#undef FB_BRANCH_IF
#undef FB_ADDR
#undef FB_WR
#undef FB_R

void
Processor::advanceWait(std::uint64_t cycles)
{
    if (_halted || cycles == 0)
        return;
    switch (_state) {
      case CoreState::Running:
        FB_ASSERT(cycles <= _busyCycles,
                  "fast-forward skipped past an issue on cpu " << _id);
        _busyCycles -= static_cast<std::uint32_t>(cycles);
        break;

      case CoreState::DrainWait:
        _barrierWaitCycles += cycles;
        break;

      case CoreState::HwStalled:
        _unit.tickStalledFor(cycles);
        _barrierWaitCycles += cycles;
        break;

      case CoreState::SwSaving:
      case CoreState::SwRestoring:
        FB_ASSERT(cycles <= _busyCycles,
                  "fast-forward skipped past a context switch on cpu "
                      << _id);
        _busyCycles -= static_cast<std::uint32_t>(cycles);
        _barrierWaitCycles += cycles;
        _contextSwitchCycles += cycles;
        break;

      case CoreState::SwSuspended:
        _unit.tickStalledFor(cycles);
        _barrierWaitCycles += cycles;
        break;
    }
}

TickResult
Processor::beginStall(std::uint64_t now)
{
    _unit.noteStalled();
    if (_stall.kind == StallKind::Hardware) {
        _state = CoreState::HwStalled;
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;
    }
    // Software: the task's context is saved so the OS can run
    // something else; after synchronization it must be restored.
    ++_contextSwitches;
    _state = CoreState::SwSaving;
    _busyCycles = _stall.saveCycles;
    ++_barrierWaitCycles;
    ++_contextSwitchCycles;
    (void)now;
    return TickResult::Progress;
}

TickResult
Processor::issueBundle(std::uint64_t now)
{
    if (_issueWidth == 1)
        return issue(now);

    // VLIW-style multi-issue: grab up to issueWidth consecutive
    // instructions with no intra-bundle register dependences, all in
    // the same region, at most one control transfer (which closes the
    // bundle). The bundle occupies the core for the longest slot.
    std::uint32_t bundle_cost = 0;
    bool wrote[isa::numRegisters] = {};
    TickResult result = TickResult::Progress;

    for (int slot = 0; slot < _issueWidth; ++slot) {
        if (_halted || _pc >= _code->size()) {
            if (slot == 0)
                return issue(now);  // reports Halted properly
            break;
        }
        const DecodedInsn &next = _code->code[_pc];
        if (slot > 0) {
            if (!next.bundleable)
                break;
            // A bundle never spans a region boundary (no later slot
            // is a BRENTER, so staticRegion is its region bit).
            if (next.staticRegion != _issueEffRegion)
                break;
            // Register hazards against earlier slots.
            bool hazard = false;
            auto touches = [&](int r) {
                return r != 0 && wrote[static_cast<std::size_t>(r)];
            };
            switch (isa::operandKind(next.op)) {
              case isa::OperandKind::RRR:
                hazard = touches(next.rs1) || touches(next.rs2) ||
                         touches(next.rd);
                break;
              case isa::OperandKind::RRI:
              case isa::OperandKind::RR:
                hazard = touches(next.rs1) || touches(next.rd);
                break;
              case isa::OperandKind::RI:
                hazard = touches(next.rd);
                break;
              case isa::OperandKind::BranchRR:
                hazard = touches(next.rs1) || touches(next.rs2);
                break;
              case isa::OperandKind::BranchNone:
                hazard = false;
                break;
              default:
                hazard = true;  // not bundleable anyway
                break;
            }
            if (hazard)
                break;
        }

        std::size_t expected_next = _pc + 1;
        bool was_branch = isa::isBranch(next.op);
        int dest = next.rd;

        result = issue(now);
        if (result != TickResult::Progress)
            return result;  // stall/halt; earlier slots already ran
        bundle_cost = std::max(bundle_cost, _lastIssueCost);
        if (dest != 0 && !was_branch)
            wrote[static_cast<std::size_t>(dest)] = true;
        // A taken control transfer closes the bundle.
        if (_pc != expected_next)
            break;
        // Marker/linkage/memory effects never occur past slot 0 by
        // construction; slot 0 with such an op still closes here.
        if (slot == 0 && !next.bundleable)
            break;
    }

    _busyCycles = bundle_cost > 0 ? bundle_cost - 1 : 0;
    return result;
}

TickResult
Processor::issue(std::uint64_t now)
{
    if (_pc >= _code->size()) {
        _halted = true;
        return TickResult::Halted;
    }

    const DecodedInsn &di = _code->code[_pc];
    const bool inherited = !_callStack.empty() && _callStack.back();
    const bool effective_region =
        !_inIsr && (di.staticRegion || _markerRegion || inherited);
    _issueEffRegion = effective_region;

    if (_inIsr) {
        // Service routines bypass the barrier structure entirely.
    } else if (effective_region) {
        // Entering (or continuing in) a barrier region.
        if (_unit.participating() &&
            _unit.state() == barrier::BarrierState::NonBarrier &&
            !_arrivePending) {
            // Readiness fires when the preceding non-barrier region
            // has drained from the pipeline (section 2: entering the
            // region is not the same as exiting the preceding one).
            _arrivePending = true;
            _arriveCycle = std::max(now, _lastNonRegionComplete);
            maybeArrive(now);
        }
    } else {
        // About to execute a non-region instruction. If an episode is
        // armed (or arming), the barrier must have synchronized first.
        // (Never reached while in an ISR.)
        if (_arrivePending) {
            _state = CoreState::DrainWait;
            ++_barrierWaitCycles;
            return TickResult::Progress;
        }
        if (_unit.participating()) {
            auto st = _unit.state();
            if (st == barrier::BarrierState::Ready ||
                st == barrier::BarrierState::Stalled) {
                return beginStall(now);
            }
            if (st == barrier::BarrierState::Synced) {
                _unit.cross();
                if (_observer)
                    _observer->onCross(_id, now);
            }
        }
    }

    executeAt(di, now, effective_region);
    return TickResult::Progress;
}

void
Processor::encodeState(snapshot::Encoder &e) const
{
    for (std::int64_t r : _regs)
        e.i64(r);
    e.u64(_pc);
    e.b(_halted);
    e.u8(static_cast<std::uint8_t>(_state));
    e.u32(_busyCycles);
    e.b(_markerRegion);
    e.boolVec(_callStack);
    e.b(_issueEffRegion);
    e.u32(_lastIssueCost);
    e.b(_inIsr);
    e.u64(_savedPc);
    e.u64(_nextInterrupt);
    e.b(_forceInterrupt);
    e.b(_arrivePending);
    e.u64(_arriveCycle);
    e.u64(_lastNonRegionComplete);
    e.u64(_instructions);
    e.u64(_barrierWaitCycles);
    e.u64(_contextSwitchCycles);
    e.u64(_contextSwitches);
    e.u64(_interruptsTaken);
    for (std::uint64_t s : _jitter.state())
        e.u64(s);
}

bool
Processor::decodeState(snapshot::Decoder &d)
{
    for (std::int64_t &r : _regs)
        r = d.i64();
    _pc = static_cast<std::size_t>(d.u64());
    _halted = d.b();
    _state = static_cast<CoreState>(d.u8());
    _busyCycles = d.u32();
    _markerRegion = d.b();
    d.boolVec(_callStack);
    _issueEffRegion = d.b();
    _lastIssueCost = d.u32();
    _inIsr = d.b();
    _savedPc = static_cast<std::size_t>(d.u64());
    _nextInterrupt = d.u64();
    _forceInterrupt = d.b();
    _arrivePending = d.b();
    _arriveCycle = d.u64();
    _lastNonRegionComplete = d.u64();
    _instructions = d.u64();
    _barrierWaitCycles = d.u64();
    _contextSwitchCycles = d.u64();
    _contextSwitches = d.u64();
    _interruptsTaken = d.u64();
    std::array<std::uint64_t, 4> jitter_state{};
    for (std::uint64_t &s : jitter_state)
        s = d.u64();
    _jitter.setState(jitter_state);
    return d.ok() && _pc <= _code->size();
}

} // namespace fb::sim
