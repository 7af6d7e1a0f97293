/* u-boot */
int board_init(void) { return 0; }
