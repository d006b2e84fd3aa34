//! [`firstx`] — truncate each sparse list to its first `x` ids (TorchArrow
//! `firstx`), bounding per-row work and embedding pooling. This allocating
//! form is the plain reference that the allocation-free
//! [`crate::op::firstx_into`] kernel and the executor are tested against.

/// Truncates each list to its first `x` elements.
///
/// Returns the new `(offsets, values)`; rows shorter than `x` are kept
/// whole. `x == 0` empties every list.
#[must_use]
pub fn firstx(offsets: &[u32], values: &[i64], x: usize) -> (Vec<u32>, Vec<i64>) {
    let rows = offsets.len().saturating_sub(1);
    let mut out_offsets = Vec::with_capacity(rows + 1);
    out_offsets.push(0u32);
    let mut out_values = Vec::new();
    for row in 0..rows {
        let start = offsets[row] as usize;
        let end = offsets[row + 1] as usize;
        let take = (end - start).min(x);
        out_values.extend_from_slice(&values[start..start + take]);
        out_offsets.push(out_values.len() as u32);
    }
    (out_offsets, out_values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jagged(lists: &[&[i64]]) -> (Vec<u32>, Vec<i64>) {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for l in lists {
            values.extend_from_slice(l);
            offsets.push(values.len() as u32);
        }
        (offsets, values)
    }

    #[test]
    fn firstx_truncates_long_lists_only() {
        let (o, v) = jagged(&[&[1, 2, 3, 4], &[5], &[], &[6, 7]]);
        let (oo, ov) = firstx(&o, &v, 2);
        assert_eq!(oo, vec![0, 2, 3, 3, 5]);
        assert_eq!(ov, vec![1, 2, 5, 6, 7]);
    }

    #[test]
    fn firstx_zero_empties_everything() {
        let (o, v) = jagged(&[&[1], &[2, 3]]);
        let (oo, ov) = firstx(&o, &v, 0);
        assert_eq!(oo, vec![0, 0, 0]);
        assert!(ov.is_empty());
    }

    #[test]
    fn firstx_is_idempotent_at_or_above_max_len() {
        let (o, v) = jagged(&[&[1, 2], &[3]]);
        let (oo, ov) = firstx(&o, &v, 10);
        assert_eq!((oo, ov), (o, v));
    }
}
