#include "sim/resources.hh"

namespace vmmx
{

namespace
{

u32
nextPow2(u32 v)
{
    u32 p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

RegFreeList::RegFreeList(unsigned physRegs, unsigned logicalRegs)
    : free_(physRegs - logicalRegs), initialFree_(physRegs - logicalRegs)
{
    vmmx_assert(physRegs > logicalRegs,
                "physical registers must exceed logical registers");
    // At most physRegs mappings can be pending release at once; one
    // spare slot keeps head != tail unambiguous at full occupancy.
    u32 cap = nextPow2(u32(physRegs) + 1);
    ring_.assign(cap, 0);
    mask_ = cap - 1;
}

StoreWindow::StoreWindow(unsigned window) : window_(window)
{
    // At most window entries are live at once.
    u32 cap = nextPow2(u32(window));
    ring_.resize(cap);
    mask_ = cap - 1;
}

} // namespace vmmx
