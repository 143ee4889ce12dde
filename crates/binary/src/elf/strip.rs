//! Symbol stripping.
//!
//! The paper notes (Section 5, Limitations) that its approach "does not work
//! with executables that have been stripped of the symbol table". To exercise
//! that limitation in tests and experiments we need a way to produce the
//! stripped variant of a built executable. [`strip_symbols`] re-parses the
//! input and rebuilds it without `.symtab`/`.strtab`, which mirrors what
//! `strip(1)` does to the classifier-relevant structure of the file.

use super::build::ElfBuilder;
use super::parse::ElfFile;
use crate::error::BinaryError;

/// Return a copy of `data` with the static symbol table removed.
///
/// The `.text`, `.rodata`, `.data`, and `.comment` contents are preserved
/// byte-for-byte, so the raw-content and strings views of the file stay
/// intact while the symbols view becomes empty — exactly the situation the
/// paper describes for stripped binaries.
pub fn strip_symbols(data: &[u8]) -> Result<Vec<u8>, BinaryError> {
    let elf = ElfFile::parse(data)?;
    let mut builder = ElfBuilder::new();
    builder.set_file_type(elf.header().e_type);
    if let Some(text) = elf.section_by_name(".text") {
        builder.add_text_section(text.data.to_vec());
    }
    if let Some(rodata) = elf.section_by_name(".rodata") {
        builder.add_rodata_section(rodata.data.to_vec());
    }
    if let Some(d) = elf.section_by_name(".data") {
        builder.add_data_section(d.data.to_vec());
    }
    if let Some(c) = elf.section_by_name(".comment") {
        builder.add_comment_section(c.data.to_vec());
    }
    // No symbols are added: the rebuilt file's .symtab holds only the null
    // entry, which ElfFile::has_symbol_table / the feature extractor treat as
    // "no usable symbols".
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::build::ElfBuilder;
    use crate::symbols::global_defined_symbols;

    fn sample() -> Vec<u8> {
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x48; 512]);
        b.add_rodata_section(b"simulation parameters v2.1\0".to_vec());
        b.add_global_function("integrate_step", 0, 128);
        b.add_global_function("write_output", 128, 64);
        b.build()
    }

    #[test]
    fn stripping_removes_symbols_keeps_contents() {
        let original = sample();
        let stripped = strip_symbols(&original).unwrap();
        let before = ElfFile::parse(&original).unwrap();
        let after = ElfFile::parse(&stripped).unwrap();

        assert_eq!(global_defined_symbols(&before).len(), 2);
        assert!(global_defined_symbols(&after).is_empty());
        assert_eq!(
            before.section_by_name(".text").unwrap().data,
            after.section_by_name(".text").unwrap().data
        );
        assert_eq!(
            before.section_by_name(".rodata").unwrap().data,
            after.section_by_name(".rodata").unwrap().data
        );
    }

    #[test]
    fn stripping_invalid_input_errors() {
        assert!(strip_symbols(b"not an elf").is_err());
    }

    #[test]
    fn stripping_is_idempotent() {
        let once = strip_symbols(&sample()).unwrap();
        let twice = strip_symbols(&once).unwrap();
        let a = ElfFile::parse(&once).unwrap();
        let b = ElfFile::parse(&twice).unwrap();
        assert_eq!(
            a.section_by_name(".text").unwrap().data,
            b.section_by_name(".text").unwrap().data
        );
        assert!(global_defined_symbols(&b).is_empty());
    }
}
