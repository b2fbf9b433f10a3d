/**
 * @file
 * Data patterns used in memory reliability testing (paper §4.2).
 *
 * The paper tests the four classic byte patterns 0x00, 0xFF, 0xAA and
 * 0x55, filling aggressor rows with the pattern and victim rows with
 * its negation.  RowData is a packed bit vector holding one row's
 * contents.
 */

#ifndef PUD_DRAM_DATAPATTERN_H
#define PUD_DRAM_DATAPATTERN_H

#include <cstdint>
#include <span>
#include <vector>

#include "dram/types.h"

namespace pud::dram {

/** One of the four standard test byte patterns. */
enum class DataPattern : std::uint8_t
{
    P00 = 0x00,
    PFF = 0xFF,
    PAA = 0xAA,
    P55 = 0x55,
};

/** All four patterns in the order the paper's figures use. */
constexpr DataPattern kAllPatterns[] = {
    DataPattern::P00, DataPattern::PFF, DataPattern::PAA, DataPattern::P55,
};

/** The bitwise negation of a pattern (victim pattern convention). */
inline DataPattern
negate(DataPattern p)
{
    return static_cast<DataPattern>(~static_cast<std::uint8_t>(p) & 0xFF);
}

inline const char *
name(DataPattern p)
{
    switch (p) {
      case DataPattern::P00: return "0x00";
      case DataPattern::PFF: return "0xFF";
      case DataPattern::PAA: return "0xAA";
      case DataPattern::P55: return "0x55";
    }
    return "?";
}

/** True for the checkerboard patterns 0xAA / 0x55. */
inline bool
isCheckerboard(DataPattern p)
{
    return p == DataPattern::PAA || p == DataPattern::P55;
}

/** Packed row contents, 64 bits per word, LSB-first within a word. */
class RowData
{
  public:
    RowData() = default;

    explicit RowData(ColId bits)
        : bits_(bits), words_((bits + 63) / 64, 0)
    {}

    /** Construct filled with a repeating byte pattern. */
    RowData(ColId bits, DataPattern pattern)
        : RowData(bits)
    {
        fill(pattern);
    }

    ColId bits() const { return bits_; }

    bool
    get(ColId col) const
    {
        return (words_[col / 64] >> (col % 64)) & 1;
    }

    void
    set(ColId col, bool value)
    {
        if (value)
            words_[col / 64] |= 1ULL << (col % 64);
        else
            words_[col / 64] &= ~(1ULL << (col % 64));
    }

    void
    toggle(ColId col)
    {
        words_[col / 64] ^= 1ULL << (col % 64);
    }

    /** Fill with a repeating byte pattern. */
    void
    fill(DataPattern pattern)
    {
        const auto byte =
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(pattern));
        std::uint64_t word = 0;
        for (int i = 0; i < 8; ++i)
            word |= byte << (8 * i);
        for (auto &w : words_)
            w = word;
        maskTail();
    }

    bool
    operator==(const RowData &other) const
    {
        return bits_ == other.bits_ && words_ == other.words_;
    }

    bool operator!=(const RowData &other) const { return !(*this == other); }

    /** Number of bit positions at which two rows differ. */
    std::size_t
    diffCount(const RowData &other) const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < words_.size(); ++i)
            n += __builtin_popcountll(words_[i] ^ other.words_[i]);
        return n;
    }

    const std::vector<std::uint64_t> &words() const { return words_; }
    std::vector<std::uint64_t> &words() { return words_; }

    /**
     * Overwrite this row with the column-wise majority of `inputs`
     * (at least one, each as wide as this row; repeats count as
     * extra votes, and this row may be one of them).  A column whose
     * ones make up exactly half of an even-sized vote takes the first
     * input's bit.  This is the bitline resolution of a SiMRA group,
     * shared by the device and the dataflow checker.
     */
    void assignMajority(std::span<const RowData *const> inputs);

  private:
    /** Zero bits past bits_ so equality/popcount stay exact. */
    void
    maskTail()
    {
        const ColId rem = bits_ % 64;
        if (rem && !words_.empty())
            words_.back() &= (1ULL << rem) - 1;
    }

    ColId bits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace pud::dram

#endif // PUD_DRAM_DATAPATTERN_H
