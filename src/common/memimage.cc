#include "common/memimage.hh"

#include <cerrno>
#include <sys/mman.h>
#include <utility>

namespace vmmx
{

MemImage::MemImage(size_t size) : size_(size)
{
    // The kernel zero-fills each page on first touch; NORESERVE keeps a
    // large, mostly untouched arena from counting against overcommit.
    void *p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map a %zu-byte memory arena: %s", size_,
              std::strerror(errno));
    data_ = static_cast<u8 *>(p);
}

MemImage::~MemImage()
{
    if (data_)
        munmap(data_, size_);
}

MemImage::MemImage(MemImage &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      brk_(std::exchange(other.brk_, 64))
{
}

Addr
MemImage::alloc(size_t bytes, size_t align)
{
    vmmx_assert(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
    Addr base = (brk_ + align - 1) & ~(Addr(align) - 1);
    if (base + bytes > size_)
        fatal("memory arena exhausted: need %zu bytes at 0x%llx (arena %zu)",
              bytes, static_cast<unsigned long long>(base), size_);
    brk_ = base + bytes;
    return base;
}

void
MemImage::copyIn(Addr a, const void *src, size_t n)
{
    check(a, n);
    std::memcpy(data_ + a, src, n);
}

void
MemImage::copyOut(void *dst, Addr a, size_t n) const
{
    check(a, n);
    std::memcpy(dst, data_ + a, n);
}

} // namespace vmmx
