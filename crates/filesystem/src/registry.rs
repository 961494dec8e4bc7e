//! File metadata registry shared by all handles to one filesystem.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pagecache::FileId;

use crate::error::FsError;

/// Size bookkeeping for the files of one filesystem.
///
/// Files are kept in a hashed map keyed by [`FileId`] identity, so the
/// per-request lookups ([`FileRegistry::size`], [`FileRegistry::exists`])
/// are O(1) and never compare names. Everything that enumerates the files
/// ([`FileRegistry::list`], [`FileRegistry::total_bytes`]) visits them in
/// file-name order, so its result does not depend on the hash order.
#[derive(Clone, Default)]
pub struct FileRegistry {
    files: Rc<RefCell<HashMap<FileId, f64>>>,
}

impl FileRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file with the given size. Fails if it already exists.
    pub fn create(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        let mut files = self.files.borrow_mut();
        if files.contains_key(file) {
            return Err(FsError::AlreadyExists(file.clone()));
        }
        files.insert(file.clone(), size.max(0.0));
        Ok(())
    }

    /// Registers a file, or replaces its size if it already exists. Returns
    /// the previous size, if any.
    pub fn create_or_replace(&self, file: &FileId, size: f64) -> Option<f64> {
        self.files.borrow_mut().insert(file.clone(), size.max(0.0))
    }

    /// Size of a file.
    pub fn size(&self, file: &FileId) -> Result<f64, FsError> {
        self.files
            .borrow()
            .get(file)
            .copied()
            .ok_or_else(|| FsError::FileNotFound(file.clone()))
    }

    /// Whether the file exists.
    pub fn exists(&self, file: &FileId) -> bool {
        self.files.borrow().contains_key(file)
    }

    /// Removes a file, returning its size.
    pub fn remove(&self, file: &FileId) -> Result<f64, FsError> {
        self.files
            .borrow_mut()
            .remove(file)
            .ok_or_else(|| FsError::FileNotFound(file.clone()))
    }

    /// Names and sizes of all registered files, sorted by file name.
    pub fn list(&self) -> Vec<(FileId, f64)> {
        let mut files: Vec<(FileId, f64)> = self
            .files
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        files.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        files
    }

    /// Total bytes registered, summed in file-name order.
    pub fn total_bytes(&self) -> f64 {
        self.list().into_iter().map(|(_, size)| size).sum()
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.borrow().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_remove() {
        let reg = FileRegistry::new();
        assert!(reg.is_empty());
        reg.create(&"a".into(), 100.0).unwrap();
        assert_eq!(reg.size(&"a".into()).unwrap(), 100.0);
        assert!(reg.exists(&"a".into()));
        assert!(!reg.exists(&"b".into()));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.total_bytes(), 100.0);
        assert_eq!(reg.remove(&"a".into()).unwrap(), 100.0);
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_create_fails_but_replace_succeeds() {
        let reg = FileRegistry::new();
        reg.create(&"a".into(), 100.0).unwrap();
        assert!(matches!(
            reg.create(&"a".into(), 50.0),
            Err(FsError::AlreadyExists(_))
        ));
        assert_eq!(reg.create_or_replace(&"a".into(), 50.0), Some(100.0));
        assert_eq!(reg.size(&"a".into()).unwrap(), 50.0);
    }

    #[test]
    fn missing_file_errors() {
        let reg = FileRegistry::new();
        assert!(matches!(
            reg.size(&"missing".into()),
            Err(FsError::FileNotFound(_))
        ));
        assert!(matches!(
            reg.remove(&"missing".into()),
            Err(FsError::FileNotFound(_))
        ));
    }

    #[test]
    fn negative_sizes_are_clamped() {
        let reg = FileRegistry::new();
        reg.create(&"a".into(), -5.0).unwrap();
        assert_eq!(reg.size(&"a".into()).unwrap(), 0.0);
    }

    #[test]
    fn handles_share_state() {
        let reg = FileRegistry::new();
        let reg2 = reg.clone();
        reg.create(&"a".into(), 10.0).unwrap();
        assert!(reg2.exists(&"a".into()));
        assert_eq!(reg2.list(), vec![("a".into(), 10.0)]);
    }

    #[test]
    fn list_is_in_name_order() {
        let reg = FileRegistry::new();
        let names = ["m", "b", "zz", "a", "z", "ab", "c0", "c"];
        for (i, name) in names.iter().enumerate() {
            reg.create(&(*name).into(), i as f64).unwrap();
        }
        let listed: Vec<String> = reg.list().iter().map(|(f, _)| f.to_string()).collect();
        let mut sorted: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        sorted.sort();
        assert_eq!(listed, sorted);
        assert_eq!(reg.total_bytes(), 28.0);
    }
}
