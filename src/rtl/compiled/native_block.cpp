#include "rtl/compiled/native_block.hpp"

#include <algorithm>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "rtl/compiled/exec_tier.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define DWT_NATIVE_X86_64 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define DWT_NATIVE_X86_64 0
#endif

namespace dwt::rtl::compiled {

#if DWT_NATIVE_X86_64

namespace {

/// Little-endian byte sink with the handful of x86-64 encodings the tape
/// ISA needs.  All memory operands are [rdi + disp32] (rdi = state pointer,
/// SysV first argument); all register operands are in the low eight
/// registers so every VEX prefix stays in the 2-byte C5 form.
class Emitter {
 public:
  explicit Emitter(unsigned words) : words_(words) {}

  [[nodiscard]] const std::vector<std::uint8_t>& code() const { return code_; }

  // Memory operand bases: rdi = state array; rsi = edge scratch buffer
  // (edge entry) or keep masks (forced entry); rdx = pinned values (forced
  // entry).
  static constexpr unsigned kState = 7;    // rdi, SysV arg 1
  static constexpr unsigned kScratch = 6;  // rsi, SysV arg 2
  static constexpr unsigned kKeep = 6;     // rsi, SysV arg 2
  static constexpr unsigned kVal = 2;      // rdx, SysV arg 3

  // -- scalar (W=1): rax=0 rcx=1 rdx=2 rsi=6 scratch ----------------------
  void mov_load(unsigned reg, std::uint32_t slot, unsigned base = kState) {
    mem_op(0x8B, reg, slot, base);
  }
  void mov_store(unsigned reg, std::uint32_t slot, unsigned base = kState) {
    mem_op(0x89, reg, slot, base);
  }
  void and_mem(unsigned reg, std::uint32_t slot) { mem_op(0x23, reg, slot); }
  void or_mem(unsigned reg, std::uint32_t slot) { mem_op(0x0B, reg, slot); }
  void xor_mem(unsigned reg, std::uint32_t slot) { mem_op(0x33, reg, slot); }
  void not_reg(unsigned reg) {
    u8(0x48);
    u8(0xF7);
    u8(0xD0 | reg);  // /2
  }
  void mov_rr(unsigned dst, unsigned src) { rr_op(0x89, dst, src); }
  void and_rr(unsigned dst, unsigned src) { rr_op(0x21, dst, src); }
  void or_rr(unsigned dst, unsigned src) { rr_op(0x09, dst, src); }
  void xor_rr(unsigned dst, unsigned src) { rr_op(0x31, dst, src); }

  // -- VEX (W=4, ymm): regs 0..3 scratch, 7 = ~0
  void v_load(unsigned reg, std::uint32_t slot, unsigned base = kState) {
    vex(2, 0);
    u8(0x6F);
    mem_modrm(reg, slot, base);
  }
  void v_store(unsigned reg, std::uint32_t slot, unsigned base = kState) {
    vex(2, 0);
    u8(0x7F);
    mem_modrm(reg, slot, base);
  }
  void vpand_mem(unsigned dst, unsigned src1, std::uint32_t slot,
                 unsigned base = kState) {
    vex(1, src1);
    u8(0xDB);
    mem_modrm(dst, slot, base);
  }
  void vpandn_mem(unsigned dst, unsigned src1, std::uint32_t slot) {
    vex(1, src1);
    u8(0xDF);
    mem_modrm(dst, slot);
  }
  void vpor_mem(unsigned dst, unsigned src1, std::uint32_t slot,
                unsigned base = kState) {
    vex(1, src1);
    u8(0xEB);
    mem_modrm(dst, slot, base);
  }
  void vpxor_mem(unsigned dst, unsigned src1, std::uint32_t slot) {
    vex(1, src1);
    u8(0xEF);
    mem_modrm(dst, slot);
  }
  void vpor_rr(unsigned dst, unsigned src1, unsigned src2) {
    vex(1, src1);
    u8(0xEB);
    u8(0xC0 | (dst << 3) | src2);
  }
  void vpand_rr(unsigned dst, unsigned src1, unsigned src2) {
    vex(1, src1);
    u8(0xDB);
    u8(0xC0 | (dst << 3) | src2);
  }
  void vpandn_rr(unsigned dst, unsigned src1, unsigned src2) {
    vex(1, src1);
    u8(0xDF);
    u8(0xC0 | (dst << 3) | src2);
  }
  void vpxor_rr(unsigned dst, unsigned src1, unsigned src2) {
    vex(1, src1);
    u8(0xEF);
    u8(0xC0 | (dst << 3) | src2);
  }
  void v_mov_rr(unsigned dst, unsigned src) {  // rename-eliminated on use
    vex(2, 0);
    u8(0x6F);
    u8(0xC0 | (dst << 3) | src);
  }
  void vpcmpeqd_self(unsigned reg) {  // reg = all-ones
    vex(1, reg);
    u8(0x76);
    u8(0xC0 | (reg << 3) | reg);
  }
  void vzeroupper() {
    u8(0xC5);
    u8(0xF8);
    u8(0x77);
  }
  void ret() { u8(0xC3); }

 private:
  void u8(std::uint8_t b) { code_.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// REX.W <op> [base + slot*words*8] with a disp32 (mod=10; rdi, rsi and
  /// rdx all encode without a SIB byte).
  void mem_op(std::uint8_t op, unsigned reg, std::uint32_t slot,
              unsigned base = kState) {
    u8(0x48);
    u8(op);
    mem_modrm(reg, slot, base);
  }
  void mem_modrm(unsigned reg, std::uint32_t slot, unsigned base = kState) {
    u8(0x80 | (reg << 3) | base);
    u32(slot * words_ * 8u);
  }
  void rr_op(std::uint8_t op, unsigned dst, unsigned src) {
    u8(0x48);
    u8(op);
    u8(0xC0 | (src << 3) | dst);
  }
  /// 2-byte VEX prefix: pp selects the mandatory prefix (1 = 66 for the
  /// integer ops, 2 = F3 for vmovdqu); vvvv is the first source register
  /// (pass 0 when the op takes none -- reg 0 one's-complements to the
  /// required 1111 field).  L = 1: every VEX op is 256 bits wide.
  void vex(unsigned pp, unsigned vvvv) {
    u8(0xC5);
    u8(0x80 | ((~vvvv & 0xFu) << 3) | 4 | pp);
  }

  unsigned words_;
  std::vector<std::uint8_t> code_;
};

void emit_scalar(Emitter& e, const Instr& it) {
  // rax = result accumulator, rcx/rdx/rsi = scratch.
  switch (it.op) {
    case Op::kNot:
      e.mov_load(0, it.a);
      e.not_reg(0);
      break;
    case Op::kAnd:
      e.mov_load(0, it.a);
      e.and_mem(0, it.b);
      break;
    case Op::kOr:
      e.mov_load(0, it.a);
      e.or_mem(0, it.b);
      break;
    case Op::kXor:
      e.mov_load(0, it.a);
      e.xor_mem(0, it.b);
      break;
    case Op::kMux:  // (c & b) | (~c & a)
      e.mov_load(0, it.c);
      e.mov_rr(1, 0);
      e.and_mem(0, it.b);
      e.not_reg(1);
      e.and_mem(1, it.a);
      e.or_rr(0, 1);
      break;
    case Op::kAddSum:  // a ^ b ^ c
      e.mov_load(0, it.a);
      e.xor_mem(0, it.b);
      e.xor_mem(0, it.c);
      break;
    case Op::kAddCarry:  // (a & b) | (c & (a ^ b))
      e.mov_load(0, it.a);
      e.mov_rr(1, 0);
      e.xor_mem(0, it.b);
      e.and_mem(0, it.c);
      e.and_mem(1, it.b);
      e.or_rr(0, 1);
      break;
    case Op::kFullAdd: {  // out = a^b^c, out2 = (a&b) | (c & (a^b))
      e.mov_load(0, it.a);
      e.mov_load(1, it.b);
      e.mov_load(2, it.c);
      e.mov_rr(6, 0);   // rsi = a
      e.xor_rr(6, 1);   // rsi = a ^ b
      e.and_rr(0, 1);   // rax = a & b
      e.mov_rr(1, 6);   // rcx = a ^ b
      e.xor_rr(1, 2);   // rcx = sum
      e.and_rr(6, 2);   // rsi = (a ^ b) & c
      e.or_rr(0, 6);    // rax = carry
      e.mov_store(1, it.out);
      e.mov_store(0, it.out2);
      return;
    }
  }
  e.mov_store(0, it.out);
}

/// Which slots' values are live in v0/v2 after the previous instruction.
/// Every result is still stored to memory, so forwarding is purely a
/// latency optimization: a levelized tape chains producer to consumer on
/// adjacent instructions constantly, and serving the operand from a
/// register breaks the store -> reload dependency (4-7 cycles per link)
/// that otherwise paces the whole straight-line block.
struct VexForward {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::uint32_t in_v0 = kNone;
  std::uint32_t in_v2 = kNone;
};

void emit_vex(Emitter& e, const Instr& it, VexForward* fwd, bool forced) {
  // v0 = result accumulator, v1/v2 = scratch, v3 = forwarded operand,
  // v7 = all-ones (prologue).
  //
  // `forced` pins each result to its slot's fault overlay before the store,
  // so the forwarded register holds the pinned value too.
  //
  // `take` copies a forwarded operand into v3 (the copy is eliminated at
  // register rename) before v0/v2 are clobbered; at most one operand per
  // instruction is forwarded, the rest load from memory as before.
  const auto pin = [&](unsigned reg, std::uint32_t slot) {
    if (!forced) return;
    e.vpand_mem(reg, reg, slot, Emitter::kKeep);
    e.vpor_mem(reg, reg, slot, Emitter::kVal);
  };
  const auto take = [&](std::uint32_t slot) -> bool {
    if (slot == fwd->in_v0) {
      e.v_mov_rr(3, 0);
      return true;
    }
    if (slot == fwd->in_v2) {
      e.v_mov_rr(3, 2);
      return true;
    }
    return false;
  };
  switch (it.op) {
    case Op::kNot:
      if (take(it.a)) {
        e.vpxor_rr(0, 7, 3);
      } else {
        e.vpxor_mem(0, 7, it.a);
      }
      break;
    case Op::kAnd:
      if (take(it.a)) {
        e.vpand_mem(0, 3, it.b);
      } else if (take(it.b)) {
        e.vpand_mem(0, 3, it.a);
      } else {
        e.v_load(0, it.a);
        e.vpand_mem(0, 0, it.b);
      }
      break;
    case Op::kOr:
      if (take(it.a)) {
        e.vpor_mem(0, 3, it.b);
      } else if (take(it.b)) {
        e.vpor_mem(0, 3, it.a);
      } else {
        e.v_load(0, it.a);
        e.vpor_mem(0, 0, it.b);
      }
      break;
    case Op::kXor:
      if (take(it.a)) {
        e.vpxor_mem(0, 3, it.b);
      } else if (take(it.b)) {
        e.vpxor_mem(0, 3, it.a);
      } else {
        e.v_load(0, it.a);
        e.vpxor_mem(0, 0, it.b);
      }
      break;
    case Op::kMux:  // (c & b) | (~c & a)
      if (take(it.c)) {
        e.vpand_mem(0, 3, it.b);
        e.vpandn_mem(2, 3, it.a);
        e.vpor_rr(0, 0, 2);
      } else if (take(it.b)) {
        e.v_load(1, it.c);
        e.vpand_rr(0, 1, 3);
        e.vpandn_mem(2, 1, it.a);
        e.vpor_rr(0, 0, 2);
      } else if (take(it.a)) {
        e.v_load(1, it.c);
        e.vpand_mem(0, 1, it.b);
        e.vpandn_rr(2, 1, 3);
        e.vpor_rr(0, 0, 2);
      } else {
        e.v_load(1, it.c);
        e.vpand_mem(0, 1, it.b);
        e.vpandn_mem(2, 1, it.a);
        e.vpor_rr(0, 0, 2);
      }
      break;
    case Op::kAddSum: {  // a ^ b ^ c, fully commutative
      std::uint32_t x = it.b;
      std::uint32_t y = it.c;
      if (take(it.a)) {
        e.vpxor_mem(0, 3, x);
      } else if (take(it.b)) {
        x = it.a;
        e.vpxor_mem(0, 3, x);
      } else if (take(it.c)) {
        x = it.a;
        y = it.b;
        e.vpxor_mem(0, 3, x);
      } else {
        e.v_load(0, it.a);
        e.vpxor_mem(0, 0, x);
      }
      e.vpxor_mem(0, 0, y);
      break;
    }
    case Op::kAddCarry: {  // (a & b) | (c & (a ^ b)), a <-> b symmetric
      const std::uint32_t other = take(it.a)   ? it.b
                                  : take(it.b) ? it.a
                                               : VexForward::kNone;
      if (other != VexForward::kNone) {
        e.vpxor_mem(0, 3, other);  // v0 = a ^ b
        e.vpand_mem(0, 0, it.c);   // v0 = (a ^ b) & c
        e.vpand_mem(1, 3, other);  // v1 = a & b
        e.vpor_rr(0, 0, 1);
      } else if (take(it.c)) {
        e.v_load(1, it.a);
        e.vpxor_mem(0, 1, it.b);   // v0 = a ^ b
        e.vpand_rr(0, 0, 3);       // v0 = (a ^ b) & c
        e.vpand_mem(1, 1, it.b);   // v1 = a & b
        e.vpor_rr(0, 0, 1);
      } else {
        e.v_load(1, it.a);
        e.vpxor_mem(0, 1, it.b);   // v0 = a ^ b
        e.vpand_mem(0, 0, it.c);   // v0 = (a ^ b) & c
        e.vpand_mem(1, 1, it.b);   // v1 = a & b
        e.vpor_rr(0, 0, 1);
      }
      break;
    }
    case Op::kFullAdd: {  // out = a^b^c, out2 = (a&b) | (c & (a^b))
      const std::uint32_t other = take(it.a)   ? it.b
                                  : take(it.b) ? it.a
                                               : VexForward::kNone;
      if (other != VexForward::kNone) {
        e.vpxor_mem(0, 3, other);  // v0 = a ^ b
        e.vpand_mem(1, 3, other);  // v1 = a & b
        e.vpxor_mem(2, 0, it.c);   // v2 = sum
        e.vpand_mem(0, 0, it.c);   // v0 = (a ^ b) & c
        e.vpor_rr(0, 0, 1);        // v0 = carry
      } else if (take(it.c)) {
        // Ripple-carry chains land here: c is the previous bit's carry.
        e.v_load(1, it.a);
        e.vpxor_mem(0, 1, it.b);   // v0 = a ^ b
        e.vpand_mem(1, 1, it.b);   // v1 = a & b
        e.vpxor_rr(2, 0, 3);       // v2 = sum
        e.vpand_rr(0, 0, 3);       // v0 = (a ^ b) & c
        e.vpor_rr(0, 0, 1);        // v0 = carry
      } else {
        e.v_load(1, it.a);
        e.vpxor_mem(0, 1, it.b);   // v0 = a ^ b
        e.vpand_mem(1, 1, it.b);   // v1 = a & b
        e.vpxor_mem(2, 0, it.c);   // v2 = sum
        e.vpand_mem(0, 0, it.c);   // v0 = (a ^ b) & c
        e.vpor_rr(0, 0, 1);        // v0 = carry
      }
      pin(2, it.out);
      pin(0, it.out2);
      e.v_store(2, it.out);
      e.v_store(0, it.out2);
      fwd->in_v0 = it.out2;
      fwd->in_v2 = it.out;
      return;
    }
  }
  pin(0, it.out);
  e.v_store(0, it.out);
  fwd->in_v0 = it.out;
  fwd->in_v2 = VexForward::kNone;
}

/// Copy schedule for the clock edge: `direct` lists DFF indices in an order
/// where every register is copied before the register feeding its d input
/// overwrites that q -- so single-pass q <- d moves reproduce the
/// simultaneous edge.  Registers on a copy cycle (mutually feeding q/d
/// loops) end up in `ring` and take the scratch round-trip.  Self-loops
/// (d == q) are dropped entirely: their copy is a no-op.
struct EdgePlan {
  std::vector<std::uint32_t> direct;
  std::vector<std::uint32_t> ring;
};

EdgePlan plan_edge(const std::vector<DffSlots>& dffs) {
  EdgePlan plan;
  const std::size_t n = dffs.size();
  // q slot -> dff index, for resolving d inputs that are register outputs.
  std::vector<std::int64_t> succ(n, -1);  // i must be copied before succ[i]
  std::vector<std::uint32_t> indeg(n, 0);
  {
    std::unordered_map<Slot, std::uint32_t> qowner;
    qowner.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) qowner.emplace(dffs[i].q, i);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto it = qowner.find(dffs[i].d);
      if (it != qowner.end() && it->second != i) {
        succ[i] = it->second;
        ++indeg[it->second];
      }
    }
  }
  // Kahn with a min-heap on the d slot: among registers whose copy is
  // unconstrained, emit in ascending source order so the edge function
  // reads the state array as a forward stream the prefetcher can follow
  // (the big pipelined designs have 1000+ DFFs and an L2-resident state).
  const auto later = [&dffs](std::uint32_t lhs, std::uint32_t rhs) {
    return dffs[lhs].d > dffs[rhs].d;
  };
  std::vector<std::uint32_t> queue;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) queue.push_back(i);
  }
  std::make_heap(queue.begin(), queue.end(), later);
  std::vector<std::uint8_t> placed(n, 0);
  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), later);
    const std::uint32_t i = queue.back();
    queue.pop_back();
    placed[i] = 1;
    if (dffs[i].d != dffs[i].q) plan.direct.push_back(i);
    if (succ[i] >= 0 && --indeg[static_cast<std::size_t>(succ[i])] == 0) {
      queue.push_back(static_cast<std::uint32_t>(succ[i]));
      std::push_heap(queue.begin(), queue.end(), later);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!placed[i] && dffs[i].d != dffs[i].q) plan.ring.push_back(i);
  }
  return plan;
}

/// The clock-edge function: ordered direct copies, then the scratch
/// round-trip for ring registers.  Uses only rax / v0, so the scratch base
/// register (rsi) stays live throughout.
void emit_edge(Emitter& e, const std::vector<DffSlots>& dffs, unsigned words) {
  const EdgePlan plan = plan_edge(dffs);
  for (const std::uint32_t i : plan.direct) {
    if (words == 1) {
      e.mov_load(0, dffs[i].d);
      e.mov_store(0, dffs[i].q);
    } else {
      e.v_load(0, dffs[i].d);
      e.v_store(0, dffs[i].q);
    }
  }
  for (std::uint32_t k = 0; k < plan.ring.size(); ++k) {
    if (words == 1) {
      e.mov_load(0, dffs[plan.ring[k]].d);
      e.mov_store(0, k, Emitter::kScratch);
    } else {
      e.v_load(0, dffs[plan.ring[k]].d);
      e.v_store(0, k, Emitter::kScratch);
    }
  }
  for (std::uint32_t k = 0; k < plan.ring.size(); ++k) {
    if (words == 1) {
      e.mov_load(0, k, Emitter::kScratch);
      e.mov_store(0, dffs[plan.ring[k]].q);
    } else {
      e.v_load(0, k, Emitter::kScratch);
      e.v_store(0, dffs[plan.ring[k]].q);
    }
  }
  if (words == 4) e.vzeroupper();
  e.ret();
}

}  // namespace

std::shared_ptr<const NativeBlock> NativeBlock::build(const Tape& tape,
                                                      unsigned words) {
  if (!native_supported(words)) return nullptr;
  // Every slot must be addressable as [rdi + disp32].
  const std::uint64_t span =
      static_cast<std::uint64_t>(tape.slot_count()) * words * 8;
  if (span > 0x7FFFFFFFull) return nullptr;

  Emitter e(words);
  // One settle pass; `forced` selects the fault-overlay variant (VEX only).
  const auto emit_settle = [&](bool forced) {
    if (words != 1) e.vpcmpeqd_self(7);
    VexForward fwd;
    for (const Instr& it : tape.instrs()) {
      if (words == 1) {
        emit_scalar(e, it);
      } else {
        emit_vex(e, it, &fwd, forced);
      }
    }
    if (words == 4) e.vzeroupper();
    e.ret();
  };
  emit_settle(false);
  const std::size_t edge_offset = e.code().size();
  emit_edge(e, tape.dffs(), words);
  // The forced entry goes last, so blocks without one are byte-identical
  // to the settle-and-edge layout.  kFull tapes alias nets onto shared
  // slots, where a per-slot pin is not the netlist's per-net pin.
  std::size_t forced_offset = 0;
  if (words != 1 && tape.fault_overlay_safe()) {
    forced_offset = e.code().size();
    emit_settle(true);
  }

  const std::size_t code_size = e.code().size();
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t page_size = page > 0 ? static_cast<std::size_t>(page) : 4096;
  const std::size_t map_size =
      (code_size + page_size - 1) / page_size * page_size;
  void* map = ::mmap(nullptr, map_size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return nullptr;
  std::memcpy(map, e.code().data(), code_size);
  // W^X: the buffer is never writable and executable at once.
  if (::mprotect(map, map_size, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(map, map_size);
    return nullptr;
  }
  return std::shared_ptr<const NativeBlock>(new NativeBlock(
      map, map_size, code_size, edge_offset, forced_offset, words,
      tape.instrs().size()));
}

NativeBlock::~NativeBlock() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

#else  // !DWT_NATIVE_X86_64

std::shared_ptr<const NativeBlock> NativeBlock::build(const Tape&, unsigned) {
  return nullptr;
}

NativeBlock::~NativeBlock() = default;

#endif

}  // namespace dwt::rtl::compiled
