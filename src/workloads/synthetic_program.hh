/**
 * @file
 * Synthetic-program generator: our stand-in for SPECINT95 binaries.
 *
 * A SyntheticProgram is a randomly generated (but seed-deterministic)
 * control-flow graph: functions made of basic blocks laid out
 * contiguously in a synthetic text segment, with conditional branches,
 * unconditional jumps, calls, and returns. Executing the program walks
 * the CFG, asking each static conditional branch's BranchBehavior for
 * outcomes, and emits a branch Trace identical in form to what Atom
 * instrumentation would have produced (Section 8.1.2 of the paper).
 *
 * The generator controls the properties that matter to branch
 * prediction studies: static branch footprint (aliasing pressure),
 * basic-block length (branches per fetch block, hence the lghist
 * compression ratio of Table 3), taken-rate skew, loop structure, and
 * the predictability mix.
 */

#ifndef EV8_WORKLOADS_SYNTHETIC_PROGRAM_HH
#define EV8_WORKLOADS_SYNTHETIC_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "trace/trace.hh"
#include "workloads/branch_behavior.hh"

namespace ev8
{

/** What ends a basic block. */
enum class TermKind : uint8_t
{
    FallThrough,  //!< no CTI; execution continues into the next block
    Cond,         //!< conditional branch (behaviour-driven)
    Jump,         //!< unconditional direct jump
    Call,         //!< call to another function
    Return,       //!< return to the caller
};

/** A basic block of the synthetic CFG. */
struct BasicBlock
{
    uint64_t pc = 0;         //!< address of the first instruction
    unsigned numInstrs = 1;  //!< instructions including any terminator
    TermKind term = TermKind::FallThrough;

    /**
     * Cond/Jump: taken-target block index. Call: index into the
     * program's call-target sets -- a call site with several candidate
     * callees executes as an indirect (dispatch) call, which is what
     * spreads dynamic coverage across the whole CFG the way interpreter
     * and compiler main loops do.
     */
    int target = -1;
    int behavior = -1;       //!< index into the behaviour pool (Cond only)

    /** Address of the terminator (last) instruction. */
    uint64_t termPc() const { return pc + (numInstrs - 1) * kInstrBytes; }

    /** Address just past the block. */
    uint64_t endPc() const { return pc + numInstrs * kInstrBytes; }
};

/** Structural parameters of a synthetic program. */
struct ProgramShape
{
    unsigned numFunctions = 8;
    unsigned minBlocksPerFunction = 6;
    unsigned maxBlocksPerFunction = 40;
    unsigned minBlockInstrs = 1;
    unsigned maxBlockInstrs = 10;
    double condFraction = 0.62;   //!< P(block ends in a conditional)
    double jumpFraction = 0.06;   //!< P(block ends in a jump)
    double callFraction = 0.08;   //!< P(block ends in a call)
    double loopBackFraction = 0.20; //!< P(conditional is a backward loop)

    /**
     * Maximum blocks a loop-closing branch jumps back over. Small spans
     * keep the loop's global-history period (trip x branches-per-body)
     * within reach of realistic history lengths, like the tight loops
     * of real integer code; predictors with shorter histories still pay
     * on the longer loops, giving the Fig. 6 history-length gradient.
     */
    unsigned maxLoopSpan = 2;

    double driverCallFraction = 0.18;   //!< call density in function 0
    unsigned maxCalleesPerSite = 3;     //!< dispatch width, inner calls
    unsigned driverDispatchWidth = 12;  //!< dispatch width, function 0

    /**
     * Probability per executed call that a dispatch site re-draws its
     * current callee. Low values create program *phases*: repetitive
     * control flow (learnable histories, like real loops and interpreter
     * phases) that still covers the whole CFG over a long trace.
     */
    double dispatchSwitchChance = 0.04;

    uint64_t textBase = 0x120000000ULL; //!< Alpha-style text segment base
};

/** Everything needed to build one benchmark's program. */
struct WorkloadProfile
{
    std::string name;
    uint64_t seed = 1;
    ProgramShape shape;
    BehaviorMix mix;
    BehaviorTuning tuning;
};

/**
 * Receives the records of a run in execution order, a batch at a time
 * (each batch is valid only for the duration of the call).
 */
using RecordSink = std::function<void(std::span<const BranchRecord>)>;

/**
 * A generated program: blocks, function entries, and one behaviour
 * instance per static conditional branch. Execution is re-runnable; the
 * behaviour states reset on each run() call.
 */
class SyntheticProgram
{
  public:
    /** Generates the CFG for @p profile (deterministic in the seed). */
    explicit SyntheticProgram(const WorkloadProfile &profile);

    /**
     * Executes the program until @p dynamic_cond_branches conditional
     * branches have executed, returning the trace. Deterministic: two
     * run() calls with the same arguments produce identical traces.
     *
     * @param run_seed perturbs the dynamic behaviour (noise draws and
     *        dispatch choices) without changing the static program --
     *        "same binary, different input". 0 is the default input.
     */
    Trace run(uint64_t dynamic_cond_branches,
              uint64_t run_seed = 0) const;

    /**
     * The same execution as run(), delivered to @p sink instead of a
     * Trace, so a consumer (the BlockStream builder) never holds the
     * whole record sequence. Execution starts at startPc().
     */
    void run(uint64_t dynamic_cond_branches, uint64_t run_seed,
             const RecordSink &sink) const;

    /** PC every run starts executing at: function 0's entry block. */
    uint64_t startPc() const { return blocks_[entries_[0]].pc; }

    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<int> &functionEntries() const { return entries_; }
    const WorkloadProfile &profile() const { return profile_; }

    /** Candidate-callee sets referenced by Call blocks' target field. */
    const std::vector<std::vector<int>> &callTargetSets() const
    {
        return callSets;
    }

    /** Number of static conditional branch sites in the CFG. */
    size_t staticCondBranches() const { return behaviorSpecs.size(); }

    /**
     * Terminator pc -> behaviour model name ("loop", "gcorr", ...) for
     * every static conditional branch; the event-trace classifier input.
     */
    std::unordered_map<uint64_t, std::string> condBranchClasses() const;

  private:
    struct BehaviorSpec
    {
        bool isLoop = false;   //!< structurally a backward loop branch
        uint64_t seed = 0;     //!< per-branch seed for instantiation
    };

    /** Instantiates a fresh behaviour object for static branch @p idx. */
    std::unique_ptr<BranchBehavior> makeBehavior(size_t idx) const;

    WorkloadProfile profile_;
    std::vector<BasicBlock> blocks_;
    std::vector<int> entries_;  //!< entry block index per function
    std::vector<BehaviorSpec> behaviorSpecs;
    std::vector<std::vector<int>> callSets; //!< dispatch candidate sets
};

/**
 * Convenience: generates @p profile's program and runs it for
 * @p dynamic_cond_branches conditional branches.
 */
Trace generateTrace(const WorkloadProfile &profile,
                    uint64_t dynamic_cond_branches);

} // namespace ev8

#endif // EV8_WORKLOADS_SYNTHETIC_PROGRAM_HH
