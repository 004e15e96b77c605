#include "common/codec.hpp"

#include <cstring>

namespace riv {

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

double BinaryReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace {

// One thread's idle frame blocks. Per thread, like the ring-frame scratch
// in RivuletProcess::on_message, so parallel simulations never share it.
struct FreeBlocks {
  std::array<FrameBlock*, FrameBlock::kFreeBlocks> blocks{};
  std::size_t n{0};
  ~FreeBlocks();
};
thread_local FreeBlocks t_free;
// Trivially destructible, so it stays readable after t_free is destroyed:
// a block released later on this thread (a Payload held by a static
// object) is freed instead of pushed.
thread_local bool t_free_gone = false;

FreeBlocks::~FreeBlocks() {
  for (std::size_t i = 0; i < n; ++i) delete blocks[i];
  n = 0;
  t_free_gone = true;
}

}  // namespace

FrameBlock* FrameBlock::acquire() {
  FrameBlock* block =
      !t_free_gone && t_free.n > 0 ? t_free.blocks[--t_free.n] : new FrameBlock;
  block->bytes.reserve(kFloorBytes);  // a recycled block already has it
  return block;
}

void FrameBlock::release(FrameBlock* block) noexcept {
  // A sole holder needs no atomic decrement: no other thread can hold a
  // reference to copy from.
  if (block->refs.load() != 1 && block->refs.fetch_sub(1) != 1) return;
  if (t_free_gone || t_free.n == kFreeBlocks ||
      block->bytes.capacity() > kKeptBytes) {
    delete block;
    return;
  }
  block->bytes.clear();
  block->refs = 1;
  t_free.blocks[t_free.n++] = block;
}

std::size_t FrameBlock::free_count() { return t_free_gone ? 0 : t_free.n; }

}  // namespace riv
