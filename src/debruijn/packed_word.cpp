#include "debruijn/packed_word.hpp"

#include <bit>

#include "common/contract.hpp"

namespace dbn {

namespace {

// The low `bits` bits of a lane set (bits <= 128).
__uint128_t low_mask(std::uint32_t bits) {
  if (bits >= 128) {
    return ~static_cast<__uint128_t>(0);
  }
  return (static_cast<__uint128_t>(1) << bits) - 1;
}

}  // namespace

PackedWord::PackedWord(std::uint32_t radix, std::size_t k) : radix_(radix) {
  DBN_REQUIRE(radix_ >= 1, "PackedWord requires radix d >= 1");
  DBN_REQUIRE(k >= 1, "PackedWord requires length k >= 1");
  DBN_REQUIRE(packable(radix, k),
              "PackedWord requires a packable (d, k); use Word otherwise");
  buf_.width = strings::packed_width(radix_);
  buf_.size = static_cast<std::uint32_t>(k);
}

bool PackedWord::packable(std::uint32_t radix, std::size_t k) {
  return strings::packable(radix, k);
}

PackedWord PackedWord::from_word(const Word& w) {
  PackedWord out(w.radix(), w.length());
  out.buf_ = strings::pack_word(w.symbols(), w.radix());
  return out;
}

Word PackedWord::to_word() const {
  return Word(radix_, strings::unpack(buf_));
}

PackedWord PackedWord::from_rank(std::uint32_t radix, std::size_t k,
                                 std::uint64_t rank) {
  if (std::has_single_bit(radix)) {
    // d = 2^b (d = 1 included, b = 0): digit x_{i+1} is bit group k-1-i of
    // the rank, so unpacking is shifts and masks — no division. This is
    // the adaptive router's per-neighbor pack, so it stays loop-cheap.
    const auto b = static_cast<std::uint32_t>(std::countr_zero(radix));
    const std::size_t rank_bits = b * k;
    DBN_REQUIRE(rank_bits < 64, "d^k does not fit in 64 bits");
    DBN_REQUIRE(rank >> rank_bits == 0,
                "from_rank: rank out of range [0, d^k)");
    PackedWord out(radix, k);
    const std::uint32_t width = out.buf_.width;
    __uint128_t bits = 0;
    for (std::size_t i = k; i-- > 0;) {
      bits |= static_cast<__uint128_t>(rank & (radix - 1)) << (i * width);
      rank >>= b;
    }
    out.buf_.bits = bits;
    return out;
  }
  const std::uint64_t n = Word::vertex_count(radix, k);
  DBN_REQUIRE(rank < n, "from_rank: rank out of range [0, d^k)");
  PackedWord out(radix, k);
  for (std::size_t i = k; i-- > 0;) {
    out.buf_.set(i, static_cast<std::uint32_t>(rank % radix));
    rank /= radix;
  }
  return out;
}

std::uint64_t PackedWord::rank() const {
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < buf_.size; ++i) {
    r = r * radix_ + buf_.get(i);
  }
  return r;
}

Digit PackedWord::digit(std::size_t i) const { return buf_.get(i); }

void PackedWord::set_digit(std::size_t i, Digit v) {
  DBN_REQUIRE(v < radix_, "set_digit out of range [0, d)");
  buf_.set(i, v);
}

PackedWord PackedWord::left_shift(Digit a) const {
  PackedWord out = *this;
  out.left_shift_inplace(a);
  return out;
}

PackedWord PackedWord::right_shift(Digit a) const {
  PackedWord out = *this;
  out.right_shift_inplace(a);
  return out;
}

void PackedWord::left_shift_inplace(Digit a) {
  DBN_REQUIRE(a < radix_, "left_shift digit out of range [0, d)");
  // Cell 0 is the low cell, so dropping x_1 is one lane shift down; the
  // vacated top cell is then overwritten with the appended digit.
  buf_.bits >>= buf_.width;
  buf_.set(buf_.size - 1, a);
}

void PackedWord::right_shift_inplace(Digit a) {
  DBN_REQUIRE(a < radix_, "right_shift digit out of range [0, d)");
  buf_.bits = (buf_.bits << buf_.width) & low_mask(buf_.size * buf_.width);
  buf_.set(0, a);
}

PackedWord PackedWord::reversed() const {
  PackedWord out(radix_, buf_.size);
  for (std::size_t i = 0; i < buf_.size; ++i) {
    out.buf_.set(i, buf_.get(buf_.size - 1 - i));
  }
  return out;
}

std::strong_ordering operator<=>(const PackedWord& a, const PackedWord& b) {
  if (const auto c = a.radix_ <=> b.radix_; c != 0) {
    return c;
  }
  const std::size_t common = std::min(a.length(), b.length());
  for (std::size_t i = 0; i < common; ++i) {
    if (const auto c = a.digit(i) <=> b.digit(i); c != 0) {
      return c;
    }
  }
  return a.length() <=> b.length();
}

}  // namespace dbn
