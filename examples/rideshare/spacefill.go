// Z-order (Morton) and Hilbert space-filling curve encodings. The paper's
// introduction motivates keeping graph and spatial data sorted by such
// curves to recover locality (citing the Hilbert-order scheme of Haase et
// al.); this example keys moving vehicle positions by their Hilbert
// distance.

package main

// zEncode interleaves the bits of x and y into a Morton code: two
// coordinates that are close in space share long code prefixes.
func zEncode(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// zDecode inverts zEncode.
func zDecode(z uint64) (x, y uint32) {
	return compact(z), compact(z >> 1)
}

// spread inserts a zero bit between every bit of v.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact removes the interleaved zero bits.
func compact(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// hilbertEncode maps (x, y) on the 2^order x 2^order grid to its distance
// along the Hilbert curve. Coordinates must be < 1<<order; order <= 31.
func hilbertEncode(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// hilbertDecode inverts hilbertEncode.
func hilbertDecode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRot rotates/flips a quadrant appropriately.
func hilbertRot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}
