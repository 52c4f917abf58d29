#include "data/next_use.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/logging.h"
#include "data/trace.h"

namespace frugal {

NextUseIndex::NextUseIndex(const Trace &trace)
    : n_steps_(trace.NumSteps()), n_gpus_(trace.n_gpus())
{
    // Hint rows are laid out row-major by (step, gpu), each parallel to
    // its key list.
    hint_offset_.assign(n_steps_ * n_gpus_ + 1, 0);
    for (std::size_t s = 0, row = 0; s < n_steps_; ++s) {
        for (GpuId g = 0; g < n_gpus_; ++g, ++row) {
            hint_offset_[row + 1] =
                hint_offset_[row] + trace.KeysFor(s, g).size();
        }
    }
    hints_.resize(hint_offset_.back());

    // Backward pass. Entering step s, every key read after s maps to its
    // nearest read `at` (> s) and the read after that. The first GPU to
    // read the key at s shifts it to {s, at}: its hint is the old `at`,
    // and it dies after s if it had none. A later GPU reading it at the
    // same step (at == s) takes the same hint.
    struct Reads
    {
        Step at = kNever;
        Step after = kNever;
    };
    FlatMap<Key, Reads> reads(static_cast<std::size_t>(
        std::min<std::uint64_t>(trace.key_space(), hints_.size())));
    dead_offset_.assign(n_steps_ + 1, 0);
    for (std::size_t s = n_steps_; s-- > 0;) {
        const Step step = static_cast<Step>(s);
        const std::size_t dead_before = dead_keys_.size();
        for (GpuId g = 0; g < n_gpus_; ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            Step *hint = hints_.data() + hint_offset_[s * n_gpus_ + g];
            for (std::size_t i = 0; i < keys.size(); ++i) {
                Reads &r = *reads.TryEmplace(keys[i]).first;
                if (r.at != step) {
                    r.after = r.at;
                    r.at = step;
                    if (r.after == kNever)
                        dead_keys_.push_back(keys[i]);
                }
                hint[i] = r.after;
            }
        }
        dead_offset_[s + 1] = dead_keys_.size() - dead_before;
    }
    FRUGAL_DCHECK(dead_keys_.size() == reads.size());

    // The dead lists were appended last step first: reversing the whole
    // array puts the steps in order, reversing each step's block back
    // restores first-seen order within it.
    std::reverse(dead_keys_.begin(), dead_keys_.end());
    for (std::size_t s = 0; s < n_steps_; ++s) {
        dead_offset_[s + 1] += dead_offset_[s];
        std::reverse(dead_keys_.begin() +
                         static_cast<std::ptrdiff_t>(dead_offset_[s]),
                     dead_keys_.begin() +
                         static_cast<std::ptrdiff_t>(dead_offset_[s + 1]));
    }
}

std::size_t
NextUseIndex::MemoryBytes() const
{
    return hints_.size() * sizeof(Step) +
           hint_offset_.size() * sizeof(std::size_t) +
           dead_keys_.size() * sizeof(Key) +
           dead_offset_.size() * sizeof(std::size_t);
}

NextUseIndex
Trace::BuildNextUseIndex() const
{
    return NextUseIndex(*this);
}

}  // namespace frugal
