#include "dram/datapattern.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace pud::dram {

void
RowData::assignMajority(std::span<const RowData *const> inputs)
{
    const std::size_t n = inputs.size();
    if (n == 0)
        panic("RowData::assignMajority: no inputs");
    for (const RowData *in : inputs)
        if (in->bits_ != bits_)
            panic("RowData::assignMajority: %u-bit input to a %u-bit "
                  "row", in->bits_, bits_);

    // Word-wise and bit-sliced: plane k holds bit k of each column's
    // count of ones, so every 64 columns are counted with one ripple
    // add per input and compared against n/2 with one pass over the
    // bit_width(n) planes.  Word w of the result depends only on word
    // w of the inputs, which is why this row may be an input.
    const auto width = static_cast<int>(std::bit_width(n));
    const std::size_t half = n / 2;
    std::uint64_t planes[64];
    for (std::size_t w = 0; w < words_.size(); ++w) {
        std::fill_n(planes, width, 0);
        for (const RowData *in : inputs) {
            std::uint64_t carry = in->words_[w];
            for (int k = 0; k < width && carry != 0; ++k) {
                const std::uint64_t plane = planes[k];
                planes[k] = plane ^ carry;
                carry &= plane;
            }
        }
        // count > half and count == half, most significant plane first.
        std::uint64_t gt = 0;
        std::uint64_t eq = ~0ULL;
        for (int k = width - 1; k >= 0; --k) {
            if ((half >> k) & 1) {
                eq &= planes[k];
            } else {
                gt |= eq & planes[k];
                eq &= ~planes[k];
            }
        }
        // Only an even n can tie; the first input breaks it.
        const std::uint64_t tie =
            n % 2 == 0 ? eq & inputs.front()->words_[w] : 0;
        words_[w] = gt | tie;
    }
    maskTail();
}

} // namespace pud::dram
