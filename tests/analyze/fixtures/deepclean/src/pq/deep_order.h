// All-clean deep-chain fixtures, mirroring the known-bad `deep` tree:
// the same call shapes with the discipline the v2 checks require. The
// driver asserts the analyzer reports zero findings here under both
// frontends.
//
// CleanTop holds kGEntry (20) and the chain acquires kTableRow (40):
// ranks increase inward, so the transitive propagation must stay
// silent. CleanTagged reaches an allocation under its spinlock but the
// call site carries `spin-block-ok:`. CleanTaggedNew constructs a class
// template whose constructor allocates, under its spinlock, on a line
// tagged `alloc-ok:`: the tag covers the constructor's allocation too.

namespace frugal {

class CleanBottom
{
  public:
    void AcquireRow()
    {
        SpinGuard row(row_lock_);
    }

  private:
    Spinlock row_lock_{LockRank::kTableRow};
};

class CleanMid
{
  public:
    void Hop()
    {
        bottom_.AcquireRow();
    }

  private:
    CleanBottom bottom_;
};

class CleanTop
{
  public:
    void CallsDownHoldingEntry()
    {
        SpinGuard entry(entry_lock_);
        mid_.Hop();
    }

  private:
    Spinlock entry_lock_{LockRank::kGEntry};
    // tsa-exempt: fixture wiring; touched only under entry_lock_.
    CleanMid mid_;
};

class CleanAppend
{
  public:
    void Append(std::vector<unsigned> &out, unsigned v)
    {
        out.push_back(v);
    }
};

class CleanTagged
{
  public:
    void AppendUnderLock(std::vector<unsigned> &out, unsigned v)
    {
        SpinGuard entry(entry_lock_);
        // spin-block-ok: fixture; the caller pre-reserves the buffer,
        // so the append below never reallocates under the lock.
        helper_.Append(out, v);
    }

  private:
    Spinlock entry_lock_{LockRank::kGEntry};
    // tsa-exempt: fixture wiring; touched only under entry_lock_.
    CleanAppend helper_;
};

template <typename T>
class CleanHolder
{
  public:
    explicit CleanHolder(unsigned n)
    {
        data_ = new T[n];
    }

  private:
    // tsa-exempt: fixture wiring; set once by the constructor.
    T *data_ = nullptr;
};

class CleanTaggedNew
{
  public:
    void CreateUnderLock(unsigned n)
    {
        SpinGuard entry(entry_lock_);
        // alloc-ok: fixture; once per object, and the constructor's
        // buffer is part of the same one-time allocation.
        holder_ = new CleanHolder<unsigned>(n);
    }

  private:
    Spinlock entry_lock_{LockRank::kGEntry};
    CleanHolder<unsigned> *holder_ FRUGAL_GUARDED_BY(entry_lock_) =
        nullptr;
};

}  // namespace frugal
