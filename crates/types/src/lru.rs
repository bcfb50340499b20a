//! [`LruTable`]: the small fully associative table with least-recently-used
//! replacement behind the prefetchers' metadata tables, Alecto's Allocation
//! and Sample Tables and the sweep server's in-memory cell cache.

/// At most `capacity` keyed entries, filled in slot order; when full, an
/// insertion replaces the least recently touched entry.
///
/// Only [`touch`](Self::touch) and
/// [`touch_or_insert_with`](Self::touch_or_insert_with) update recency;
/// [`get`](Self::get) and [`get_mut`](Self::get_mut) leave it alone. Lookups
/// scan the keys, which are stored apart from the values, and slots grow on
/// demand, so an empty table costs no entry memory whatever its capacity.
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    /// The clock value of each slot's latest touch.
    stamps: Vec<u64>,
    capacity: usize,
    clock: u64,
}

impl<K: PartialEq, V> LruTable<K, V> {
    /// Creates an empty table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU table needs at least one entry");
        Self { keys: Vec::new(), values: Vec::new(), stamps: Vec::new(), capacity, clock: 0 }
    }

    /// The most entries the table holds.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn position(&self, key: &K) -> Option<usize> {
        self.keys.iter().position(|k| k == key)
    }

    /// The value under `key`, leaving recency alone.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|i| &self.values[i])
    }

    /// The value under `key` for update, leaving recency alone.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key).map(|i| &mut self.values[i])
    }

    /// The value under `key`, made the most recently touched entry.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let i = self.position(key)?;
        self.stamps[i] = self.clock;
        Some(&mut self.values[i])
    }

    /// Touches the entry under `key`, or inserts `make()` under it: into the
    /// next free slot, else in place of the least recently touched entry.
    /// Returns the entry, whether `key` was already present (its value is
    /// then kept), and the displaced entry, so the caller can count or fold
    /// it.
    pub fn touch_or_insert_with(
        &mut self,
        key: K,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool, Option<(K, V)>) {
        self.clock += 1;
        if let Some(i) = self.position(&key) {
            self.stamps[i] = self.clock;
            return (&mut self.values[i], true, None);
        }
        let value = make();
        if self.keys.len() < self.capacity {
            self.keys.push(key);
            self.values.push(value);
            self.stamps.push(self.clock);
            return (self.values.last_mut().expect("an entry was just pushed"), false, None);
        }
        let (i, _) =
            self.stamps.iter().enumerate().min_by_key(|&(_, &s)| s).expect("table is full");
        self.stamps[i] = self.clock;
        let evicted = (
            std::mem::replace(&mut self.keys[i], key),
            std::mem::replace(&mut self.values[i], value),
        );
        (&mut self.values[i], false, Some(evicted))
    }
}

#[cfg(test)]
mod tests {
    use super::LruTable;
    use crate::SplitMix64;

    #[test]
    fn matches_a_reference_model() {
        // The policy each hand-rolled table implemented: fixed slots of
        // (key, value, stamp), a fresh stamp per touch (step `t` stamps `t`),
        // the first free slot, else the least stamp.
        let mut rng = SplitMix64::new(0x1e0);
        for capacity in 1..=8 {
            let mut table = LruTable::new(capacity);
            let mut model: Vec<Option<(u64, u64, u64)>> = vec![None; capacity];
            for t in 1..=2_000 {
                let (key, value) = (rng.below(12), rng.next_u64());
                let at = model.iter().position(|s| s.is_some_and(|(k, _, _)| k == key));
                let held = at.and_then(|i| model[i]).map(|(_, v, _)| v);
                match rng.below(4) {
                    0 => assert_eq!(table.get(&key).copied(), held, "step {t}"),
                    1 => {
                        let got = table.get_mut(&key).map(|v| std::mem::replace(v, value));
                        assert_eq!(got, held, "step {t}");
                        if let Some(i) = at {
                            model[i].as_mut().expect("found slots are full").1 = value;
                        }
                    }
                    2 => {
                        assert_eq!(table.touch(&key).copied(), held, "step {t}");
                        if let Some(i) = at {
                            model[i].as_mut().expect("found slots are full").2 = t;
                        }
                    }
                    _ => {
                        let (got, hit, evicted) = table.touch_or_insert_with(key, || value);
                        let got = (*got, hit, evicted);
                        // `None` sorts first: the first free slot, else the least stamp.
                        let victim = || (0..capacity).min_by_key(|&i| model[i].map(|s| s.2));
                        let i = at.or_else(victim).expect("capacity > 0");
                        let evicted =
                            if at.is_some() { None } else { model[i].map(|(k, v, _)| (k, v)) };
                        let kept = held.unwrap_or(value);
                        model[i] = Some((key, kept, t));
                        assert_eq!(got, (kept, at.is_some(), evicted), "step {t}");
                    }
                }
                assert_eq!(table.len(), model.iter().flatten().count(), "step {t}");
            }
        }
    }
}
