"""Guest physical memory tests: bounds, tracking, dirty pages."""

import pytest
from hypothesis import given, strategies as st

from repro.host.backend import DEFAULT_CONTEXT_MEMORY
from repro.hw.memory import GuestMemory, GuestMemoryError, PAGE_SIZE


def make(size=64 * 1024):
    return GuestMemory(size)


class TestConstruction:
    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            GuestMemory(100)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GuestMemory(0)

    def test_starts_zeroed(self):
        mem = make()
        assert mem.read(0, 16) == bytes(16)

    def test_len(self):
        assert len(make(8192)) == 8192


class TestAccess:
    def test_write_read_roundtrip(self):
        mem = make()
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_out_of_range_read(self):
        mem = make(4096)
        with pytest.raises(GuestMemoryError):
            mem.read(4090, 10)

    def test_out_of_range_write(self):
        mem = make(4096)
        with pytest.raises(GuestMemoryError):
            mem.write(4095, b"ab")

    def test_negative_address(self):
        with pytest.raises(GuestMemoryError):
            make().read(-1, 1)

    @pytest.mark.parametrize("width,value", [
        (8, 0xAB), (16, 0xBEEF), (32, 0xDEADBEEF), (64, 0x0123456789ABCDEF),
    ])
    def test_integer_roundtrip(self, width, value):
        mem = make()
        getattr(mem, f"write_u{width}")(256, value)
        assert getattr(mem, f"read_u{width}")(256) == value

    def test_integers_are_little_endian(self):
        mem = make()
        mem.write_u32(0, 0x11223344)
        assert mem.read(0, 4) == bytes([0x44, 0x33, 0x22, 0x11])

    def test_integer_masking(self):
        mem = make()
        mem.write_u8(0, 0x1FF)
        assert mem.read_u8(0) == 0xFF

    @given(st.binary(min_size=1, max_size=256), st.integers(min_value=0, max_value=1000))
    def test_roundtrip_property(self, data, addr):
        mem = make()
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data


class TestFirstTouch:
    def test_touch_counting(self):
        mem = make()
        mem.write(0, b"x")
        mem.write(1, b"y")  # same page
        mem.write(PAGE_SIZE, b"z")  # new page
        assert mem.touched_pages == 2

    def test_callback_fires_once_per_page(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.write(0, b"a")
        mem.write(10, b"b")
        mem.write(PAGE_SIZE * 2, b"c")
        assert events == [0, 2]

    def test_cross_page_write_touches_both(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.write(PAGE_SIZE - 2, b"abcd")
        assert events == [0, 1]

    def test_load_bytes_does_not_fire_callback(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.load_bytes(b"image", 0)
        assert events == []

    def test_reset_touch_tracking(self):
        mem = make()
        mem.write(0, b"x")
        mem.reset_touch_tracking()
        assert mem.touched_pages == 0

    def test_mark_touched(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.mark_touched([0, 1])
        mem.write(0, b"x")
        assert events == []  # pre-marked pages do not fault


class TestDirtyTracking:
    def test_writes_dirty_pages(self):
        mem = make()
        mem.write(0, b"x")
        mem.load_bytes(b"img", PAGE_SIZE)
        assert mem.dirty_pages == {0, 1}
        assert mem.dirty_bytes == 2 * PAGE_SIZE

    def test_clear_dirty_zeroes_and_reports(self):
        mem = make()
        mem.write(100, b"secret")
        cleared = mem.clear_dirty()
        assert cleared == PAGE_SIZE
        assert mem.read(100, 6) == bytes(6)
        assert mem.dirty_bytes == 0

    def test_clear_dirty_leaves_clean_pages(self):
        mem = make()
        mem.write(0, b"a")
        mem.clear_dirty()
        mem.write(PAGE_SIZE, b"b")
        mem.clear_dirty()
        assert mem.read(0, 1) == b"\x00"

    def test_capture_restore_roundtrip(self):
        mem = make()
        mem.write(10, b"payload")
        pages = mem.capture_dirty()
        other = make()
        other.restore_pages(pages)
        assert other.read(10, 7) == b"payload"
        assert other.dirty_pages == mem.dirty_pages

    def test_capture_is_a_copy(self):
        mem = make()
        mem.write(0, b"aaaa")
        pages = mem.capture_dirty()
        mem.write(0, b"bbbb")
        assert pages[0][:4] == b"aaaa"

    def test_fill_resets_dirty(self):
        mem = make()
        mem.write(0, b"x")
        mem.fill(0)
        assert mem.dirty_bytes == 0

    def test_copy_from_requires_same_size(self):
        with pytest.raises(ValueError):
            make(4096).copy_from(make(8192))

    def test_copy_from_copies_dirty_set(self):
        src = make()
        src.write(PAGE_SIZE, b"z")
        dst = make()
        dst.copy_from(src)
        assert dst.dirty_pages == {1}
        assert dst.read(PAGE_SIZE, 1) == b"z"

    def test_snapshot_bytes_immutable_copy(self):
        mem = make()
        mem.write(0, b"abc")
        snap = mem.snapshot_bytes()
        mem.write(0, b"xyz")
        assert snap[:3] == b"abc"

    def test_fill_and_copy_from_work_in_place(self):
        """Bulk mutations rewrite the mapping; they never swap in a new
        backing and leave the old one for the garbage collector."""
        mem = make()
        backing = mem._data
        mem.fill(0xAB)
        assert mem.read(0, 2) == b"\xab\xab"
        assert mem.read(mem.size - 1, 1) == b"\xab"
        mem.fill(0)
        assert mem.read(0, 2) == bytes(2)
        src = make()
        src.write(PAGE_SIZE + 3, b"copied")
        mem.copy_from(src)
        assert mem.read(PAGE_SIZE + 3, 6) == b"copied"
        assert mem._data is backing


MiB = 1024 * 1024

#: Every guest-memory size a pool hands out: the VM backends' power-of-two
#: buckets (4 MiB up) and the software contexts' fixed size.
BUCKET_SIZES = sorted({DEFAULT_CONTEXT_MEMORY,
                       *(4 * MiB << shift for shift in range(5))})


class TestLazyBacking:
    @pytest.mark.parametrize("size", BUCKET_SIZES)
    def test_fresh_memory_reads_zero_at_page_edges(self, size):
        mem = GuestMemory(size)
        npages = size // PAGE_SIZE
        # First, last, and a spread of pages in between.
        for page in sorted({0, 1, npages // 3, npages // 2, npages - 2,
                            npages - 1}):
            start = page * PAGE_SIZE
            assert mem.read_u8(start) == 0
            assert mem.read_u8(start + PAGE_SIZE - 1) == 0
            assert mem.read_u64(start + PAGE_SIZE - 8) == 0
        mem.release()


class TestRelease:
    @staticmethod
    def released() -> GuestMemory:
        mem = make()
        mem.write(0, b"stale secret")
        mem.write_u64(PAGE_SIZE, 0x1122334455667788)
        mem.release()
        return mem

    @pytest.mark.parametrize("access", [
        lambda m: m.read(0, 12),
        lambda m: m.read_u8(0),
        lambda m: m.read_u16(0),
        lambda m: m.read_u32(0),
        lambda m: m.read_u64(PAGE_SIZE),
        lambda m: m.write(0, b"x"),
        lambda m: m.write_u8(0, 1),
        lambda m: m.write_u64(PAGE_SIZE, 1),
        lambda m: m.load_bytes(b"image", 0),
        lambda m: m.capture_dirty(),
        lambda m: m.snapshot_bytes(),
        lambda m: m.clear_dirty(),
        lambda m: m.fill(0),
        lambda m: m.restore_runs([(0, bytes(PAGE_SIZE))], [0]),
    ])
    def test_access_after_release_raises(self, access):
        """A released memory never reads back stale or zero bytes, and
        never accepts a write: every access raises."""
        with pytest.raises((ValueError, TypeError)):
            access(self.released())

    def test_release_is_idempotent(self):
        mem = self.released()
        mem.release()
        with pytest.raises(ValueError):
            mem.read_u8(0)
