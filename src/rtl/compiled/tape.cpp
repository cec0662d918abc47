#include "rtl/compiled/tape.hpp"

#include <algorithm>
#include <stdexcept>

#include "rtl/compiled/opt/passes.hpp"

namespace dwt::rtl::compiled {
namespace {

Op op_of(CellKind k) {
  switch (k) {
    case CellKind::kNot: return Op::kNot;
    case CellKind::kAnd2: return Op::kAnd;
    case CellKind::kOr2: return Op::kOr;
    case CellKind::kXor2: return Op::kXor;
    case CellKind::kMux2: return Op::kMux;
    case CellKind::kAddSum: return Op::kAddSum;
    case CellKind::kAddCarry: return Op::kAddCarry;
    case CellKind::kConst0:
    case CellKind::kConst1:
    case CellKind::kDff: break;
  }
  throw std::logic_error("compile: cell kind has no tape opcode");
}

}  // namespace

const char* to_string(OptLevel level) {
  switch (level) {
    case OptLevel::kNone: return "O0";
    case OptLevel::kSafe: return "O1";
    case OptLevel::kFull: return "O2";
  }
  return "?";
}

std::shared_ptr<const Tape> compile(const Netlist& nl) {
  auto tape = std::make_shared<Tape>();
  Tape& t = *tape;
  t.slot_of_net_.assign(nl.net_count(), kNullSlot);
  t.pi_flag_.assign(nl.net_count(), 0);
  t.dff_q_flag_.assign(nl.net_count(), 0);
  t.po_flag_.assign(nl.net_count(), 0);
  t.net_of_slot_.reserve(nl.net_count());

  for (const auto& [name, bus] : nl.outputs()) {
    for (const NetId n : bus.bits) t.po_flag_[n] = 1;
  }

  const auto new_slot = [&t](NetId net) {
    const Slot s = static_cast<Slot>(t.net_of_slot_.size());
    t.slot_of_net_[net] = s;
    t.net_of_slot_.push_back(net);
    t.const_image_.push_back(0);
    return s;
  };

  // Sources first: primary inputs, then DFF outputs, then constants.  These
  // slots are never written by tape instructions, so eval() leaves them
  // untouched and clock_edge()/set_input() own them.
  for (const NetId pi : nl.primary_inputs()) {
    t.pi_flag_[pi] = 1;
    new_slot(pi);
  }
  for (const Cell& c : nl.cells()) {
    if (c.kind == CellKind::kDff) {
      t.dff_q_flag_[c.out] = 1;
      new_slot(c.out);
    } else if (c.kind == CellKind::kConst0) {
      new_slot(c.out);  // image entry stays 0
    } else if (c.kind == CellKind::kConst1) {
      t.const_image_[new_slot(c.out)] = ~std::uint64_t{0};
    }
  }

  // Combinational cells in dependency order; each output gets the next
  // sequential slot so the eval loop streams its writes.
  const std::vector<CellId> topo = nl.topo_order();
  std::vector<std::uint32_t> level_of_slot;
  t.instrs_.reserve(topo.size());
  for (const CellId id : topo) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1) continue;
    Instr it;
    it.op = op_of(c.kind);
    it.out = new_slot(c.out);
    const int n_in = input_count(c.kind);
    Slot* pins[3] = {&it.a, &it.b, &it.c};
    for (int i = 0; i < n_in; ++i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      const Slot s = t.slot_of_net_[in];
      if (s == kNullSlot) {
        throw std::logic_error("compile: instruction reads an unplaced net");
      }
      *pins[i] = s;
    }
    // kNot's unused operands alias its input so the eval switch never
    // touches an invalid slot.
    for (int i = n_in; i < 3; ++i) *pins[i] = it.a;
    t.instrs_.push_back(it);
  }

  // Levelization depth (longest instruction chain), for reporting.
  level_of_slot.assign(t.net_of_slot_.size(), 0);
  for (const Instr& it : t.instrs_) {
    const std::uint32_t lvl = 1 + std::max({level_of_slot[it.a],
                                            level_of_slot[it.b],
                                            level_of_slot[it.c]});
    level_of_slot[it.out] = lvl;
    t.depth_ = std::max<std::size_t>(t.depth_, lvl);
  }

  for (const Cell& c : nl.cells()) {
    if (c.kind != CellKind::kDff) continue;
    DffSlots d;
    d.q = t.slot_of_net_[c.out];
    d.d = t.slot_of_net_[c.in[0]];
    if (d.q == kNullSlot || d.d == kNullSlot) {
      throw std::logic_error("compile: DFF pin on an unplaced net");
    }
    t.dffs_.push_back(d);
  }
  return tape;
}

std::shared_ptr<const Tape> compile(const Netlist& nl, OptLevel level) {
  std::shared_ptr<const Tape> tape = compile(nl);
  if (level == OptLevel::kNone) return tape;
  return opt::optimize(*tape, level);
}

}  // namespace dwt::rtl::compiled
