package mem

// LineSet is a set of cache-line addresses backed by a paged bitmap: the
// line-address space is divided into fixed-size pages of bits, and only
// pages that have ever held a member are materialized. Membership tests and
// inserts are a map lookup plus bit arithmetic, with no per-element
// allocation — a page allocates once, on its first member, and then absorbs
// every other line in its range for free.
//
// The oracle miss classifier uses a LineSet for its "ever touched" record,
// where the map[LineAddr]struct{} it replaces paid a hash insert (and,
// amortized, a rehash) for every first touch. Workloads reference lines
// with high spatial locality, so the page working set stays tiny: a page
// covers 2^16 lines = 4MB of address space at 64-byte lines.
//
// The zero value is an empty set ready for use.
type LineSet struct {
	pages map[uint64]*linePage

	// lastKey/lastPage memoize the most recently used page: spatially
	// local access streams stay on one page for long runs, and the
	// memo answers those without hashing into the page map at all.
	lastKey  uint64
	lastPage *linePage
}

// linePageBits is log2 of the lines covered per page. 2^16 lines per page
// makes each page an 8KB bitmap — large enough that sequential sweeps stay
// on one page for millions of bytes, small enough that sparse pointer
// chases don't balloon memory.
const linePageBits = 16

// linePageWords is the uint64 words per page.
const linePageWords = (1 << linePageBits) / 64

type linePage [linePageWords]uint64

// split decomposes a line address into page key, word index, and bit mask.
func (s *LineSet) split(line LineAddr) (page uint64, word int, mask uint64) {
	page = uint64(line) >> linePageBits
	low := uint64(line) & (1<<linePageBits - 1)
	return page, int(low >> 6), 1 << (low & 63)
}

// page returns the materialized page covering key, or nil.
func (s *LineSet) page(key uint64) *linePage {
	if s.lastPage != nil && s.lastKey == key {
		return s.lastPage
	}
	p := s.pages[key]
	if p != nil {
		s.lastKey, s.lastPage = key, p
	}
	return p
}

// TestAndSet inserts line and reports whether it was already a member.
// This is the oracle hot path: one call answers "first touch?" and records
// the touch.
func (s *LineSet) TestAndSet(line LineAddr) bool {
	key, word, mask := s.split(line)
	p := s.page(key)
	if p == nil {
		if s.pages == nil {
			s.pages = make(map[uint64]*linePage)
		}
		p = new(linePage)
		s.pages[key] = p
		s.lastKey, s.lastPage = key, p
	}
	if p[word]&mask != 0 {
		return true
	}
	p[word] |= mask
	return false
}

// Contains reports membership without modifying the set.
func (s *LineSet) Contains(line LineAddr) bool {
	key, word, mask := s.split(line)
	p := s.page(key)
	return p != nil && p[word]&mask != 0
}
