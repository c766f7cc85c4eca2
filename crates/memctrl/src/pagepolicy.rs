//! Row-buffer page policies.

/// When the controller closes (precharges) an open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PagePolicy {
    /// Keep the row open until a conflicting access arrives.
    Open,
    /// Precharge immediately after every access.
    Closed,
    /// The paper's policy (Kaseridis et al., MICRO 2011): keep the row open
    /// for a small number of row hits, then auto-precharge — capturing
    /// short-term spatial locality without open-page conflict penalties.
    MinimalistOpen {
        /// Row hits allowed before the auto-precharge (4 in the original).
        max_hits: u32,
    },
}

impl PagePolicy {
    /// The paper's configuration.
    pub fn minimalist_open() -> Self {
        PagePolicy::MinimalistOpen { max_hits: 4 }
    }

    /// True if a row that has served `hits` accesses should be auto-closed.
    pub fn should_close(&self, hits: u32) -> bool {
        match *self {
            PagePolicy::Open => false,
            PagePolicy::Closed => true,
            PagePolicy::MinimalistOpen { max_hits } => hits >= max_hits,
        }
    }
}

impl Default for PagePolicy {
    fn default() -> Self {
        Self::minimalist_open()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_never_closes() {
        assert!(!PagePolicy::Open.should_close(1_000_000));
    }

    #[test]
    fn closed_always_closes() {
        assert!(PagePolicy::Closed.should_close(1));
    }

    #[test]
    fn minimalist_closes_after_max_hits() {
        let p = PagePolicy::minimalist_open();
        assert!(!p.should_close(3));
        assert!(p.should_close(4));
    }
}
