#include "predictors/hierarchy.hh"

#include "common/bits.hh"

namespace ev8
{

HierarchyPredictor::HierarchyPredictor(PredictorPtr primary,
                                       PredictorPtr backup,
                                       unsigned log2_chooser,
                                       std::string label)
    : primary(std::move(primary)), backup(std::move(backup)),
      log2Chooser(log2_chooser), chooser(size_t{1} << log2_chooser),
      label(std::move(label))
{
}

size_t
HierarchyPredictor::chooserIndex(uint64_t pc) const
{
    const uint64_t line = pc >> 2;
    return static_cast<size_t>((line ^ (line >> log2Chooser))
                               & mask(log2Chooser));
}

bool
HierarchyPredictor::predict(const BranchSnapshot &snap)
{
    lastPrimary = primary->predict(snap);
    lastBackup = backup->predict(snap);
    const bool use_backup = chooser.taken(chooserIndex(snap.pc));
    ++lookups;
    if (use_backup)
        ++backupUsed;
    return use_backup ? lastBackup : lastPrimary;
}

void
HierarchyPredictor::update(const BranchSnapshot &snap, bool taken,
                           bool predicted_taken)
{
    // The chooser trains only on disagreement, toward whichever
    // component was right.
    if (lastPrimary != lastBackup)
        chooser.update(chooserIndex(snap.pc), lastBackup == taken);
    primary->update(snap, taken, lastPrimary);
    backup->update(snap, taken, lastBackup);
    (void)predicted_taken;
}

uint64_t
HierarchyPredictor::storageBits() const
{
    return primary->storageBits() + backup->storageBits()
        + chooser.storageBits();
}

std::string
HierarchyPredictor::name() const
{
    return label.empty()
        ? primary->name() + "+" + backup->name() : label;
}

double
HierarchyPredictor::backupUseRate() const
{
    return lookups == 0
        ? 0.0 : static_cast<double>(backupUsed)
              / static_cast<double>(lookups);
}

} // namespace ev8
