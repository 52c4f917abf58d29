// Known-bad whole-program fixture: a call written with explicit
// template arguments, made under a Spinlock section, reaches an
// allocation one frame down. The call edge must exist for the summary
// to carry the allocation up to the call site.

namespace frugal {

template <typename T>
inline void GrowBuffer(std::vector<T> &out, T v)
{
    out.push_back(v);
}

class TemplateTop
{
  public:
    void GrowUnderSpin(std::vector<int> &out)
    {
        SpinGuard entry(entry_lock_);
        GrowBuffer<int>(out, 1);  // EXPECT:spin-blocking
    }

  private:
    Spinlock entry_lock_{LockRank::kGEntry};
};

}  // namespace frugal
