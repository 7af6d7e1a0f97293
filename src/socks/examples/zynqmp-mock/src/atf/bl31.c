/* arm trusted firmware, BL31 */
int bl31_main(void) { return 0; }
