#include "workloads/synthetic_program.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "common/bits.hh"

namespace ev8
{

namespace
{

/** Mixes a per-branch seed out of the profile seed and branch ordinal. */
uint64_t
branchSeed(uint64_t base, uint64_t ordinal)
{
    uint64_t z = base ^ (ordinal * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

SyntheticProgram::SyntheticProgram(const WorkloadProfile &profile)
    : profile_(profile)
{
    const ProgramShape &shape = profile_.shape;
    assert(shape.numFunctions >= 1);
    assert(shape.minBlocksPerFunction >= 3);
    assert(shape.maxBlocksPerFunction >= shape.minBlocksPerFunction);
    assert(shape.minBlockInstrs >= 1);
    assert(shape.maxBlockInstrs <= 32);

    Rng rng(profile_.seed);

    // Pass 1: choose the block count of every function so that call
    // targets (function entry indices) are known up front.
    std::vector<unsigned> func_blocks(shape.numFunctions);
    entries_.resize(shape.numFunctions);
    unsigned total_blocks = 0;
    for (unsigned f = 0; f < shape.numFunctions; ++f) {
        func_blocks[f] = static_cast<unsigned>(
            rng.range(shape.minBlocksPerFunction,
                      shape.maxBlocksPerFunction));
        entries_[f] = static_cast<int>(total_blocks);
        total_blocks += func_blocks[f];
    }
    blocks_.reserve(total_blocks);

    // Pass 2: generate each function's blocks.
    for (unsigned f = 0; f < shape.numFunctions; ++f) {
        const unsigned n = func_blocks[f];
        const int base = entries_[f];
        bool func_has_cond = false;

        for (unsigned j = 0; j < n; ++j) {
            BasicBlock block;
            block.numInstrs = static_cast<unsigned>(
                rng.range(shape.minBlockInstrs, shape.maxBlockInstrs));

            const bool last = (j == n - 1);
            if (last) {
                // Function 0 is the driver: its tail jumps back to its
                // entry, forming the benchmark's outer loop. All other
                // functions end in a return.
                if (f == 0) {
                    block.term = TermKind::Jump;
                    block.target = entries_[0];
                } else {
                    block.term = TermKind::Return;
                }
                blocks_.push_back(block);
                continue;
            }

            double draw = rng.uniform();
            // Force at least one conditional into the driver function so
            // every outer-loop iteration makes observable progress.
            if (f == 0 && j == n - 2 && !func_has_cond)
                draw = 0.0;

            if ((draw -= shape.condFraction) < 0.0) {
                block.term = TermKind::Cond;
                func_has_cond = true;

                const bool has_forward_room = j + 2 <= n - 1;
                const bool backward = !has_forward_room
                    || (j > 0 && rng.chance(shape.loopBackFraction));

                BehaviorSpec spec;
                spec.seed = branchSeed(profile_.seed ^ 0xb7ae15u,
                                       behaviorSpecs.size());
                if (backward) {
                    // Loop-closing branch: jumps back a short span.
                    const unsigned span = shape.maxLoopSpan;
                    const unsigned lo = j >= span ? j - span : 0;
                    block.target = base
                        + static_cast<int>(rng.range(lo, j));
                    spec.isLoop = true;
                } else {
                    // Forward branch skipping at least one block so the
                    // taken target differs from the fall-through.
                    const unsigned hi = std::min(j + 8, n - 1);
                    block.target = base
                        + static_cast<int>(rng.range(j + 2, hi));
                    spec.isLoop = false;
                }
                block.behavior = static_cast<int>(behaviorSpecs.size());
                behaviorSpecs.push_back(spec);
            } else if ((draw -= shape.jumpFraction) < 0.0
                       && j + 2 <= n - 1) {
                // Forward-only jumps: cycles may only close through
                // loop-conditionals (guaranteed to exit) so no CTI-free
                // infinite cycle can form.
                block.term = TermKind::Jump;
                block.target = base
                    + static_cast<int>(rng.range(j + 2, n - 1));
            } else if ((draw -= (f == 0 ? shape.driverCallFraction
                                        : shape.callFraction)) < 0.0
                       && f + 1 < shape.numFunctions) {
                // Calls go strictly to higher-numbered functions, so the
                // dynamic call depth is bounded by the function count.
                // A call site carries a *set* of candidate callees: the
                // driver function dispatches widely (interpreter-style),
                // inner functions narrowly. Dispatch is what spreads
                // dynamic coverage across the whole CFG.
                block.term = TermKind::Call;
                const unsigned width = f == 0 ? shape.driverDispatchWidth
                                              : shape.maxCalleesPerSite;
                std::vector<int> callees;
                const unsigned n_callees = static_cast<unsigned>(
                    rng.range(1, std::max(1u, width)));
                for (unsigned c = 0; c < n_callees; ++c) {
                    callees.push_back(entries_[static_cast<unsigned>(
                        rng.range(f + 1, shape.numFunctions - 1))]);
                }
                block.target = static_cast<int>(callSets.size());
                callSets.push_back(std::move(callees));
            } else {
                block.term = TermKind::FallThrough;
            }
            blocks_.push_back(block);
        }
    }

    // Pass 3: lay the blocks out in the text segment. Function entries
    // are aligned to 8-instruction fetch rows, as a compiler would.
    uint64_t pc = shape.textBase;
    size_t next_entry = 0;
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (next_entry < entries_.size()
            && static_cast<int>(i) == entries_[next_entry]) {
            pc = (pc + 31) & ~uint64_t{31};
            ++next_entry;
        }
        blocks_[i].pc = pc;
        pc += blocks_[i].numInstrs * kInstrBytes;
    }
}

std::unique_ptr<BranchBehavior>
SyntheticProgram::makeBehavior(size_t idx) const
{
    const BehaviorSpec &spec = behaviorSpecs[idx];
    Rng rng(spec.seed);
    if (spec.isLoop)
        return sampleLoopBehavior(profile_.tuning, rng);
    return sampleBehavior(profile_.mix, profile_.tuning, rng);
}

std::unordered_map<uint64_t, std::string>
SyntheticProgram::condBranchClasses() const
{
    std::unordered_map<uint64_t, std::string> classes;
    for (const BasicBlock &block : blocks_) {
        if (block.term != TermKind::Cond || block.behavior < 0)
            continue;
        classes[block.termPc()] =
            makeBehavior(static_cast<size_t>(block.behavior))->name();
    }
    return classes;
}

Trace
SyntheticProgram::run(uint64_t dynamic_cond_branches,
                      uint64_t run_seed) const
{
    Trace trace(profile_.name, startPc());
    trace.records().reserve(dynamic_cond_branches * 2);
    run(dynamic_cond_branches, run_seed,
        [&trace](std::span<const BranchRecord> batch) {
            trace.records().insert(trace.records().end(), batch.begin(),
                                   batch.end());
        });
    assert(trace.isWellFormed());
    return trace;
}

void
SyntheticProgram::run(uint64_t dynamic_cond_branches, uint64_t run_seed,
                      const RecordSink &sink) const
{
    // Fresh behaviour instances so repeated runs are identical.
    std::vector<std::unique_ptr<BranchBehavior>> behaviors;
    behaviors.reserve(behaviorSpecs.size());
    for (size_t i = 0; i < behaviorSpecs.size(); ++i)
        behaviors.push_back(makeBehavior(i));

    Rng noise_rng(profile_.seed ^ 0x5eed0fUL
                  ^ (run_seed * 0x9e3779b97f4a7c15ULL));
    BehaviorContext ctx;
    ctx.rng = &noise_rng;

    // Records reach the sink in batches, so the per-record cost of the
    // type-erased call is amortized away.
    std::array<BranchRecord, 512> batch;
    size_t filled = 0;
    auto emit = [&](const BranchRecord &rec) {
        batch[filled++] = rec;
        if (filled == batch.size()) {
            sink(std::span<const BranchRecord>(batch.data(), filled));
            filled = 0;
        }
    };

    std::vector<int> call_stack;
    std::vector<int> dispatch_choice(callSets.size(), -1);
    int pos = entries_[0];
    uint64_t cond_count = 0;
    uint64_t steps_since_cond = 0;
    const uint64_t progress_limit = blocks_.size() * 8 + 64;

    // Short-window path context: one byte of the last three taken-CTI
    // targets. Path-correlated branch outcomes are functions of these 24
    // bits, i.e. of *recent* control-flow provenance -- precisely the
    // information the EV8 information vector captures through the lghist
    // path bits and the Z/Y/X block addresses (Sections 5.1-5.2), and
    // that pure outcome history does not.
    auto note_path = [&ctx](uint64_t, uint64_t to_pc) {
        ctx.path = ((ctx.path << 8) | ((to_pc >> 2) & 0xff)) & mask(24);
    };

    while (cond_count < dynamic_cond_branches) {
        const BasicBlock &block = blocks_[static_cast<size_t>(pos)];

        if (++steps_since_cond > progress_limit) {
            throw std::logic_error(
                "synthetic program stopped making progress");
        }

        BranchRecord rec;
        rec.pc = block.termPc();

        switch (block.term) {
          case TermKind::FallThrough:
            ++pos;
            continue;

          case TermKind::Cond: {
            const bool taken =
                behaviors[static_cast<size_t>(block.behavior)]
                    ->nextOutcome(ctx);
            rec.type = BranchType::Conditional;
            rec.taken = taken;
            rec.target =
                blocks_[static_cast<size_t>(block.target)].pc;
            emit(rec);
            ctx.ghist = (ctx.ghist << 1) | (taken ? 1 : 0);
            if (taken)
                note_path(rec.pc, rec.target);
            ++cond_count;
            steps_since_cond = 0;
            pos = taken ? block.target : pos + 1;
            break;
          }

          case TermKind::Jump:
            rec.type = BranchType::Unconditional;
            rec.taken = true;
            rec.target =
                blocks_[static_cast<size_t>(block.target)].pc;
            emit(rec);
            note_path(rec.pc, rec.target);
            pos = block.target;
            break;

          case TermKind::Call: {
            const std::vector<int> &callees =
                callSets[static_cast<size_t>(block.target)];
            // Sticky dispatch: a site keeps calling the same callee for
            // a while (a program phase), occasionally re-drawing. This
            // keeps branch histories repetitive -- hence learnable --
            // while still covering the whole CFG over a long trace.
            int &choice = dispatch_choice[static_cast<size_t>(
                block.target)];
            if (choice < 0
                || (callees.size() > 1
                    && noise_rng.chance(
                        profile_.shape.dispatchSwitchChance))) {
                choice = static_cast<int>(
                    noise_rng.below(callees.size()));
            }
            const int callee = callees[static_cast<size_t>(choice)];
            // Multi-candidate sites model indirect (dispatch) calls.
            rec.type = callees.size() == 1 ? BranchType::Call
                                           : BranchType::Indirect;
            rec.taken = true;
            rec.target = blocks_[static_cast<size_t>(callee)].pc;
            emit(rec);
            note_path(rec.pc, rec.target);
            call_stack.push_back(pos + 1);
            pos = callee;
            break;
          }

          case TermKind::Return: {
            assert(!call_stack.empty());
            const int return_to = call_stack.back();
            call_stack.pop_back();
            rec.type = BranchType::Return;
            rec.taken = true;
            rec.target =
                blocks_[static_cast<size_t>(return_to)].pc;
            emit(rec);
            note_path(rec.pc, rec.target);
            pos = return_to;
            break;
          }
        }
    }
    if (filled > 0)
        sink(std::span<const BranchRecord>(batch.data(), filled));
}

Trace
generateTrace(const WorkloadProfile &profile,
              uint64_t dynamic_cond_branches)
{
    SyntheticProgram program(profile);
    return program.run(dynamic_cond_branches);
}

} // namespace ev8
