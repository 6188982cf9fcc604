#include "coh/golden_memory.hh"

#include "common/logging.hh"

namespace inpg {

void
GoldenMemory::setInitial(Addr addr, std::uint64_t value)
{
    initial[addr] = value;
}

void
GoldenMemory::record(const OpRecord &rec)
{
    log.push_back(rec);
}

std::uint64_t
GoldenMemory::finalValue(Addr addr) const
{
    std::uint64_t v = 0;
    auto it = initial.find(addr);
    if (it != initial.end())
        v = it->second;
    for (const auto &r : log) {
        if (r.addr != addr || r.kind == OpRecord::Kind::Load || r.demoted)
            continue;
        v = r.newValue;
    }
    return v;
}

std::string
GoldenMemory::verify() const
{
    // The log is appended in completion order (the simulator is
    // single-threaded), which for a given line equals its coherence
    // serialization order. Verify each line's write chain.
    std::map<Addr, std::uint64_t> value = initial;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const OpRecord &r = log[i];
        auto it = value.find(r.addr);
        std::uint64_t cur = it == value.end() ? 0 : it->second;
        if (r.kind == OpRecord::Kind::Load || r.demoted)
            continue; // loads and demoted atomics wrote nothing and may
                      // legally observe older shared copies
        if (r.oldValue != cur) {
            return format("op %zu (core %d, cycle %llu, addr 0x%llx): "
                          "observed old value %llu but chain value is "
                          "%llu",
                          i, r.core,
                          static_cast<unsigned long long>(r.executedAt),
                          static_cast<unsigned long long>(r.addr),
                          static_cast<unsigned long long>(r.oldValue),
                          static_cast<unsigned long long>(cur));
        }
        // Re-derive the new value to catch op-application bugs.
        std::uint64_t expect_new = 0;
        if (r.kind == OpRecord::Kind::Store) {
            expect_new = r.operandA;
        } else {
            switch (r.op) {
              case AtomicOp::Swap:
                expect_new = r.operandA;
                break;
              case AtomicOp::Cas:
                expect_new =
                    r.oldValue == r.operandA ? r.operandB : r.oldValue;
                break;
              case AtomicOp::FetchAdd:
                expect_new = r.oldValue + r.operandA;
                break;
              case AtomicOp::FetchOr:
                expect_new = r.oldValue | r.operandA;
                break;
              case AtomicOp::FetchAnd:
                expect_new = r.oldValue & r.operandA;
                break;
            }
        }
        if (r.newValue != expect_new) {
            return format("op %zu (core %d, addr 0x%llx): new value %llu "
                          "!= expected %llu",
                          i, r.core,
                          static_cast<unsigned long long>(r.addr),
                          static_cast<unsigned long long>(r.newValue),
                          static_cast<unsigned long long>(expect_new));
        }
        value[r.addr] = r.newValue;
    }
    return "";
}

} // namespace inpg
